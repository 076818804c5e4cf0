// sp::exec — the pluggable execution backend.
//
// The contract under test: the threads backend is *observably identical*
// to the deterministic fiber scheduler. Partitions, modeled clocks,
// traces, and RunStats fingerprints must match byte-for-byte at any
// thread count, because all rendezvous combining happens in fixed
// group-rank order under the engine lock (DESIGN.md §7). Fault
// injection, recovery, deadlock detection, and exception propagation
// must behave the same way too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "comm/engine.hpp"
#include "core/scalapart.hpp"
#include "exec/executor.hpp"
#include "graph/generators.hpp"

namespace sp {
namespace {

using comm::BspEngine;
using comm::Comm;
using comm::DeadlockError;
using comm::FaultPlan;
using comm::RankFailedError;
using comm::RunStats;

TEST(ExecBackend, ParseAndName) {
  EXPECT_EQ(exec::parse_backend("fiber"), exec::Backend::kFiber);
  EXPECT_EQ(exec::parse_backend("threads"), exec::Backend::kThreads);
  EXPECT_EQ(exec::parse_backend("process"), exec::Backend::kProcess);
  EXPECT_THROW(exec::parse_backend("openmp"), std::invalid_argument);
  EXPECT_THROW(exec::parse_backend(""), std::invalid_argument);
  EXPECT_STREQ(exec::backend_name(exec::Backend::kFiber), "fiber");
  EXPECT_STREQ(exec::backend_name(exec::Backend::kThreads), "threads");
  EXPECT_STREQ(exec::backend_name(exec::Backend::kProcess), "process");
}

TEST(ExecBackend, FiberBackendAlwaysAvailable) {
  exec::ExecOptions eo;
  auto ex = exec::Executor::make(eo);
  ASSERT_NE(ex, nullptr);
  EXPECT_EQ(ex->concurrency(), 1u);
}

// A small SPMD program exercising every rendezvous type; returns data a
// test can compare across backends.
struct ProgramResult {
  std::vector<std::int64_t> sums;        // per rank: allreduce result
  std::vector<std::int64_t> gathered;    // rank 0: allgather result
  std::vector<std::int64_t> exchanged;   // per rank: sum of received bytes
};

RunStats run_program(BspEngine::Options o, ProgramResult* out) {
  const std::uint32_t p = o.nranks;
  out->sums.assign(p, 0);
  out->exchanged.assign(p, 0);
  BspEngine engine(o);
  return engine.run([&](Comm& c) {
    const auto r = static_cast<std::int64_t>(c.rank());
    c.add_compute(100.0 * static_cast<double>(r + 1));
    out->sums[c.rank()] =
        c.allreduce(r * r + 1, comm::ReduceOp::kSum);
    auto all = c.allgather(r * 3 + 1);
    if (c.rank() == 0) {
      out->gathered.assign(all.begin(), all.end());
    }
    // Ring exchange: send rank index to the next rank.
    std::vector<std::pair<std::uint32_t, std::vector<std::int64_t>>> outgoing;
    outgoing.emplace_back((c.rank() + 1) % c.nranks(),
                          std::vector<std::int64_t>{r, r + 1});
    auto in = c.exchange_typed(outgoing);
    std::int64_t acc = 0;
    for (const auto& [peer, data] : in) {
      acc += peer;
      acc = std::accumulate(data.begin(), data.end(), acc);
    }
    out->exchanged[c.rank()] = acc;
    c.barrier();
  });
}

TEST(ExecBackend, FiberCollectivesProduceExpectedValues) {
  BspEngine::Options o;
  o.nranks = 8;
  ProgramResult res;
  auto stats = run_program(o, &res);
  std::int64_t expect_sum = 0;
  for (std::int64_t r = 0; r < 8; ++r) expect_sum += r * r + 1;
  for (auto s : res.sums) EXPECT_EQ(s, expect_sum);
  ASSERT_EQ(res.gathered.size(), 8u);
  for (std::int64_t r = 0; r < 8; ++r) EXPECT_EQ(res.gathered[r], r * 3 + 1);
  EXPECT_EQ(stats.backend, exec::Backend::kFiber);
  EXPECT_EQ(stats.threads, 1u);
}

TEST(ExecBackend, ThreadsMatchFiberOnCollectives) {
  BspEngine::Options fiber_opt;
  fiber_opt.nranks = 8;
  ProgramResult fiber_res;
  auto fiber_stats = run_program(fiber_opt, &fiber_res);

  BspEngine::Options thr_opt = fiber_opt;
  thr_opt.backend = exec::Backend::kThreads;
  thr_opt.threads = 4;
  ProgramResult thr_res;
  auto thr_stats = run_program(thr_opt, &thr_res);

  EXPECT_EQ(fiber_res.sums, thr_res.sums);
  EXPECT_EQ(fiber_res.gathered, thr_res.gathered);
  EXPECT_EQ(fiber_res.exchanged, thr_res.exchanged);
  EXPECT_EQ(fiber_stats.clocks, thr_stats.clocks);
  EXPECT_EQ(fiber_stats.fingerprint(), thr_stats.fingerprint());
  EXPECT_EQ(thr_stats.backend, exec::Backend::kThreads);
  EXPECT_EQ(thr_stats.threads, 4u);
}

TEST(ExecBackend, FingerprintIdenticalAcrossThreadCounts) {
  std::uint64_t first = 0;
  bool have_first = false;
  for (std::uint32_t t : {1u, 2u, 3u, 8u}) {
    BspEngine::Options o;
    o.nranks = 16;
    o.backend = exec::Backend::kThreads;
    o.threads = t;
    ProgramResult res;
    auto stats = run_program(o, &res);
    if (!have_first) {
      first = stats.fingerprint();
      have_first = true;
    } else {
      EXPECT_EQ(stats.fingerprint(), first) << "threads=" << t;
    }
  }
}

// The acceptance bar of the subsystem: the full ScalaPart pipeline on the
// quickstart graph produces byte-identical partitions and trace
// fingerprints on both backends.
class ExecPipelineTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ExecPipelineTest, PartitionBitIdenticalAcrossBackends) {
  auto g = graph::gen::delaunay(20000, 1).graph;  // the quickstart graph
  core::ScalaPartOptions opt;
  opt.nranks = GetParam();

  auto fiber = core::scalapart_partition(g, opt);

  opt.backend = exec::Backend::kThreads;
  opt.threads = 8;
  auto threads = core::scalapart_partition(g, opt);

  EXPECT_EQ(fiber.part.side, threads.part.side);
  EXPECT_EQ(fiber.report.cut, threads.report.cut);
  EXPECT_DOUBLE_EQ(fiber.modeled_seconds, threads.modeled_seconds);
  EXPECT_EQ(fiber.stats.fingerprint(), threads.stats.fingerprint());
  EXPECT_EQ(threads.stats.backend, exec::Backend::kThreads);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ExecPipelineTest,
                         ::testing::Values(4u, 16u));

// Crash + shrink-and-recover must play out identically on both backends:
// the same rank dies at the same deterministic point, survivors recover,
// and the final partition and trace fingerprints agree bit-for-bit.
TEST(ExecBackend, FaultedRunEquivalentAcrossBackends) {
  auto g = graph::gen::delaunay(4000, 5).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 16;
  opt.faults.kill_at_event(3, 40);  // rank 3 dies mid-pipeline

  auto fiber = core::scalapart_partition(g, opt);
  ASSERT_EQ(fiber.recovery.failed_ranks, std::vector<std::uint32_t>{3u});
  ASSERT_GE(fiber.recovery.recoveries, 1u);

  opt.backend = exec::Backend::kThreads;
  opt.threads = 8;
  auto threads = core::scalapart_partition(g, opt);

  EXPECT_EQ(threads.recovery.failed_ranks, fiber.recovery.failed_ranks);
  EXPECT_EQ(threads.recovery.recoveries, fiber.recovery.recoveries);
  EXPECT_EQ(threads.recovery.final_active_ranks,
            fiber.recovery.final_active_ranks);
  EXPECT_EQ(fiber.part.side, threads.part.side);
  EXPECT_EQ(fiber.report.cut, threads.report.cut);
  EXPECT_DOUBLE_EQ(fiber.modeled_seconds, threads.modeled_seconds);
  EXPECT_EQ(fiber.stats.fingerprint(), threads.stats.fingerprint());
}

TEST(ExecBackend, DeadlockDetectedUnderThreads) {
  BspEngine::Options o;
  o.nranks = 4;
  o.backend = exec::Backend::kThreads;
  o.threads = 4;
  BspEngine engine(o);
  EXPECT_THROW(engine.run([](Comm& c) {
    c.barrier();
    if (c.rank() != 0) c.barrier();  // rank 0 bails out early
  }),
               DeadlockError);
}

// A stall after most ranks spent the first barrier queued for one of the
// two run slots. Detection must still fire: a rank queued for a slot holds
// no predicate, so it must not count as parked, and none may be left
// waiting for a slot when the run aborts.
TEST(ExecBackend, DeadlockDetectedWithQueuedRanks) {
  BspEngine::Options o;
  o.nranks = 16;
  o.backend = exec::Backend::kThreads;
  o.threads = 2;
  BspEngine engine(o);
  EXPECT_THROW(engine.run([](Comm& c) {
    c.barrier();
    if (c.rank() != 0) c.barrier();  // rank 0 bails out early
  }),
               DeadlockError);
}

TEST(ExecBackend, ExceptionPropagatesUnderThreads) {
  // (P, T): a few ranks per slot, and every rank behind a single slot.
  for (const auto& [p, t] : {std::pair{4u, 2u}, std::pair{8u, 1u}}) {
    BspEngine::Options o;
    o.nranks = p;
    o.backend = exec::Backend::kThreads;
    o.threads = t;
    BspEngine engine(o);
    EXPECT_THROW(engine.run([](Comm& c) {
      c.barrier();
      if (c.rank() == 2) throw std::runtime_error("rank 2 gives up");
      c.barrier();  // peers park here until the run aborts
    }),
                 std::runtime_error)
        << "P=" << p << " T=" << t;
  }
}

// An Executor-level barrier. Each round every rank bumps the round's
// arrival count under the engine lock, the arrival that completes the
// round calls notify(), and every rank parks until the round is full.
// The predicate counts its own evaluations; it runs under the engine
// lock, so plain per-rank counters suffice. A rank should evaluate it
// when it parks and once more when the round completes, not at every
// other rank's park or wake.
TEST(ExecBackend, ThreadsWakeOnlyRunnableRanks) {
  constexpr std::uint32_t kRanks = 16;
  constexpr std::uint32_t kRounds = 300;
  for (std::uint32_t t : {2u, 4u, 16u}) {
    exec::ExecOptions eo;
    eo.backend = exec::Backend::kThreads;
    eo.threads = t;
    auto ex = exec::Executor::make(eo);
    std::vector<std::uint32_t> arrived(kRounds, 0);
    std::vector<std::uint32_t> worst(kRanks, 0);    // most evals in a round
    std::vector<std::uint64_t> total(kRanks, 0);
    ex->run(kRanks, [&](std::uint32_t rank) {
      for (std::uint32_t round = 0; round < kRounds; ++round) {
        exec::ExecLock lock(*ex);
        if (++arrived[round] == kRanks) ex->notify();
        std::uint32_t evals = 0;
        const exec::Executor::ReadyFn ready = [&] {
          ++evals;
          return arrived[round] == kRanks;
        };
        ex->block_until(rank, ready);
        worst[rank] = std::max(worst[rank], evals);
        total[rank] += evals;
      }
    });
    const double mean =
        static_cast<double>(std::accumulate(total.begin(), total.end(),
                                            std::uint64_t{0})) /
        (kRanks * kRounds);
    const double worst_rank_mean =
        static_cast<double>(*std::max_element(total.begin(), total.end())) /
        kRounds;
    EXPECT_LE(*std::max_element(worst.begin(), worst.end()), 3u)
        << "T=" << t << ": " << mean << " evals per rank and round, "
        << worst_rank_mean << " for the worst rank";
  }
}

// The throttle: between two collectives a rank holds a run slot, so no
// more than T ranks are ever outside the engine at once, however the
// slots are handed over. The sums must still equal the fiber run's.
TEST(ExecBackend, ThreadsNeverRunMoreThanTRanks) {
  constexpr std::uint32_t kRanks = 16;
  constexpr std::int64_t kReductions = 100;
  std::atomic<std::uint32_t> in_flight{0};
  std::atomic<std::uint32_t> most{0};
  auto run = [&](exec::Backend backend, std::uint32_t t) {
    BspEngine::Options o;
    o.nranks = kRanks;
    o.backend = backend;
    o.threads = t;
    BspEngine engine(o);
    std::vector<std::int64_t> sums(kRanks, 0);
    engine.run([&](Comm& c) {
      const auto r = static_cast<std::int64_t>(c.rank());
      for (std::int64_t i = 0; i < kReductions; ++i) {
        if (i > 0) in_flight.fetch_sub(1);
        sums[c.rank()] += c.allreduce(r * i + 1, comm::ReduceOp::kSum);
        const std::uint32_t now = in_flight.fetch_add(1) + 1;
        std::uint32_t seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now)) {
        }
      }
      in_flight.fetch_sub(1);
    });
    return sums;
  };
  const std::vector<std::int64_t> fiber = run(exec::Backend::kFiber, 0);
  for (std::uint32_t t : {1u, 2u, 3u}) {
    most = 0;
    EXPECT_EQ(run(exec::Backend::kThreads, t), fiber) << "T=" << t;
    EXPECT_LE(most.load(), t) << "T=" << t;
  }
}

TEST(ExecBackend, CrashPropagatesToSurvivorsUnderThreads) {
  FaultPlan plan;
  plan.kill_at_event(2, 1);
  BspEngine::Options o;
  o.nranks = 4;
  o.faults = plan;
  o.backend = exec::Backend::kThreads;
  o.threads = 4;
  BspEngine engine(o);
  std::vector<int> caught(4, 0);
  auto stats = engine.run([&](Comm& c) {
    try {
      for (int i = 0; i < 4; ++i) c.barrier();
      FAIL() << "rank " << c.rank() << " missed the failure";
    } catch (const RankFailedError& e) {
      ASSERT_EQ(e.failed_ranks().size(), 1u);
      EXPECT_EQ(e.failed_ranks()[0], 2u);
      caught[c.rank()] = 1;
    }
  });
  EXPECT_EQ(caught, (std::vector<int>{1, 1, 0, 1}));
  EXPECT_EQ(stats.failed_ranks, std::vector<std::uint32_t>{2u});
}

TEST(ExecBackend, ThreadsDefaultsToHardwareConcurrency) {
  exec::ExecOptions eo;
  eo.backend = exec::Backend::kThreads;
  eo.threads = 0;
  auto ex = exec::Executor::make(eo);
  EXPECT_GE(ex->concurrency(), 1u);
}

}  // namespace
}  // namespace sp
