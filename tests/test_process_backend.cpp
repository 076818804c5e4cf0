// Process-backend specifics (DESIGN.md §11): real forked ranks, the
// host-memory seam, and — the part no modeled fault can substitute for —
// a child rank killed with an actual SIGKILL mid-superstep. The
// supervisor must map the dead socket to the same structured
// RankFailedError / shrink-and-recover path as a modeled FaultPlan
// crash, and the survivors must converge to the same recovered result.
//
// Fingerprints are deliberately NOT compared for the real-kill runs: a
// modeled crash charges the victim's final (killing) communication
// event, a SIGKILL does not, so the victim's clock differs by one event.
// Failure sets and recovered results are the contract.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <vector>

#include "analysis/shared.hpp"
#include "comm/engine.hpp"
#include "exec/executor.hpp"

namespace sp {
namespace {

using comm::BspEngine;
using comm::Comm;
using comm::RankFailedError;
using comm::ReduceOp;
using comm::RunStats;

BspEngine::Options process_opts(std::uint32_t p) {
  BspEngine::Options o;
  o.nranks = p;
  o.backend = exec::Backend::kProcess;
  return o;
}

struct RecoveredResult {
  std::vector<std::uint32_t> failed;
  std::vector<std::uint32_t> survivors;
  std::int64_t final_sum = 0;
};

// Shared program shape for the modeled-vs-real crash comparison: rank 1
// dies after its third allreduce (modeled: FaultPlan entering event 3;
// real: raise(SIGKILL) after completing three events). Survivors catch
// the poison, shrink, and rerun the superstep loop to completion.
void crash_recover_body(Comm& world0, bool real_kill, RecoveredResult* out) {
  Comm world = world0;
  for (;;) {
    try {
      for (int step = 0; step < 3; ++step) {
        (void)world.allreduce<std::int64_t>(
            static_cast<std::int64_t>(world.rank()) + step, ReduceOp::kSum);
      }
      if (real_kill && world.world_rank() == 1 && world.remote_memory()) {
        // Only a forked child may do this: in-process backends would
        // take down the whole test runner.
        raise(SIGKILL);
      }
      const std::int64_t sum = world.allreduce<std::int64_t>(
          static_cast<std::int64_t>(world.world_rank()) * 10 + 1,
          ReduceOp::kSum);
      auto ids = world.allgather<std::uint32_t>(world.world_rank());
      if (world.rank() == 0) {
        out->survivors = ids;
        out->final_sum = sum;
      }
      return;
    } catch (const RankFailedError& e) {
      if (world.world_rank() == 0) out->failed = e.failed_ranks();
      world = world.shrink();
    }
  }
}

TEST(ProcessBackend, RealSigkillMatchesModeledCrashRecovery) {
  constexpr std::uint32_t kRanks = 4;

  // Reference: the same death, modeled, on the fiber backend.
  RecoveredResult modeled;
  {
    BspEngine::Options o;
    o.nranks = kRanks;
    o.faults.crashes.push_back({/*rank=*/1, /*stage=*/"", /*after_events=*/3});
    BspEngine engine(o);
    const RunStats stats = engine.run([&](Comm& c) {
      crash_recover_body(c, /*real_kill=*/false, &modeled);
    });
    EXPECT_EQ(stats.failed_ranks, std::vector<std::uint32_t>{1u});
  }

  // Real: fork the ranks and SIGKILL child 1 at the same point.
  RecoveredResult real;
  BspEngine engine(process_opts(kRanks));
  const RunStats stats = engine.run([&](Comm& c) {
    crash_recover_body(c, /*real_kill=*/true, &real);
  });

  EXPECT_EQ(stats.failed_ranks, std::vector<std::uint32_t>{1u});
  EXPECT_EQ(real.failed, modeled.failed);
  EXPECT_EQ(real.survivors, modeled.survivors);
  EXPECT_EQ(real.final_sum, modeled.final_sum);
  ASSERT_EQ(real.survivors.size(), kRanks - 1);
}

TEST(ProcessBackend, SigkillWhileSurvivorsAreBlockedInRendezvous) {
  // Rank 2 dies *without* entering the barrier the others are already
  // parked in — the supervisor must poison that rendezvous when the
  // socket EOFs, not wait for a frame that will never come.
  constexpr std::uint32_t kRanks = 4;
  RecoveredResult out;
  BspEngine engine(process_opts(kRanks));
  engine.run([&](Comm& world0) {
    Comm world = world0;
    bool first_pass = true;
    for (;;) {
      try {
        if (first_pass && world.world_rank() == 2) {
          if (world.remote_memory()) raise(SIGKILL);
        }
        world.barrier();
        auto ids = world.allgather<std::uint32_t>(world.world_rank());
        if (world.rank() == 0) out.survivors = ids;
        return;
      } catch (const RankFailedError& e) {
        first_pass = false;
        if (world.world_rank() == 0) out.failed = e.failed_ranks();
        world = world.shrink();
      }
    }
  });
  EXPECT_EQ(out.failed, std::vector<std::uint32_t>{2u});
  EXPECT_EQ(out.survivors,
            (std::vector<std::uint32_t>{0u, 1u, 3u}));
}

TEST(ProcessBackend, HostMemorySeamRoundTrip) {
  // Children live in forked address spaces: a plain store would mutate
  // their copy-on-write pages and vanish. Every access here goes through
  // the shared-state seam, so the canonical host objects must end up —
  // and be observed — consistent from all ranks.
  constexpr std::uint32_t kRanks = 4;
  std::vector<std::uint64_t> dir(kRanks, 0);
  std::uint64_t scalar = 0;
  std::vector<std::uint32_t> blob;
  std::vector<std::uint64_t> echo(kRanks, 0);

  BspEngine engine(process_opts(kRanks));
  engine.run([&](Comm& c) {
    analysis::SharedSpan<std::uint64_t> d(dir.data(), dir.size(), "test/dir");
    d.write(c, c.rank(), 1000u + c.rank());
    if (c.rank() == 0) {
      analysis::shared_store(c, scalar, std::uint64_t{77}, "test/scalar");
      analysis::shared_assign_vec(c, blob, std::vector<std::uint32_t>{9, 8, 7},
                                  "test/blob");
    }
    c.barrier();
    std::uint64_t digest = analysis::shared_load(c, scalar, "test/scalar");
    for (std::uint64_t v : d.snapshot(c)) digest += v;
    for (std::uint32_t v : analysis::shared_fetch_vec(c, blob, "test/blob")) {
      digest += v;
    }
    analysis::SharedSpan<std::uint64_t> e(echo.data(), echo.size(),
                                          "test/echo");
    e.write(c, c.rank(), digest);
    c.barrier();
  });

  const std::uint64_t expect = 77 + (1000 + 1001 + 1002 + 1003) + 9 + 8 + 7;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(dir[r], 1000u + r) << "rank " << r;
    EXPECT_EQ(echo[r], expect) << "rank " << r;
  }
  EXPECT_EQ(scalar, 77u);
  EXPECT_EQ(blob, (std::vector<std::uint32_t>{9, 8, 7}));
}

TEST(ProcessBackend, SingleRankRunsInParentWithoutForking) {
  std::int64_t seen = -1;
  BspEngine engine(process_opts(1));
  const RunStats stats = engine.run([&](Comm& c) {
    EXPECT_FALSE(c.remote_memory());  // rank 0 always lives host-side
    seen = c.allreduce<std::int64_t>(42, ReduceOp::kSum);
  });
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(stats.backend, exec::Backend::kProcess);
}

TEST(ProcessBackend, EngineIsReusableAcrossRuns) {
  // Each run forks a fresh set of children; two identical runs must
  // produce identical modeled traces.
  BspEngine engine(process_opts(4));
  auto program = [](Comm& c) {
    (void)c.allreduce<std::int64_t>(static_cast<std::int64_t>(c.rank()),
                                    ReduceOp::kSum);
    c.barrier();
  };
  const RunStats first = engine.run(program);
  const RunStats second = engine.run(program);
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

}  // namespace
}  // namespace sp
