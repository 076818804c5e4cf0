// Tests for exchange coalescing (DESIGN.md §3a): every packet a rank
// sends to one peer in a superstep travels in one packed message. Several
// packets to one peer must still arrive complete and in send order, with
// the coalesced-batch counter ticking; message faults must hit the logical
// packets; partitions, modeled clocks, trace fingerprints and JSONL trace
// exports must be bit-identical across backends, schedules and fault plans
// (crash + straggler); and the pipeline must still reproduce what the
// deleted per-packet exchange path produced.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "comm/engine.hpp"
#include "comm/fault_plan.hpp"
#include "core/scalapart.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"

namespace sp {
namespace {

using comm::BspEngine;
using comm::Comm;
using comm::FaultPlan;

TEST(CoalesceDifferential, MultiPacketPerPeerDeliversEveryPayloadInOrder) {
  // Several packets to the same destination in one superstep pack into
  // one message; delivery (content, source, send order) must be intact.
  auto program = [](Comm& c) {
    for (int round = 0; round < 3; ++round) {
      std::vector<Comm::Packet> out;
      const std::uint32_t peer = (c.rank() + 1) % c.nranks();
      for (int k = 0; k < 4; ++k) {
        Comm::Packet p;
        p.peer = peer;
        p.data.assign(static_cast<std::size_t>(k + 1),
                      std::byte{static_cast<unsigned char>(16 * round + k)});
        out.push_back(std::move(p));
      }
      // One deliberately empty payload: zero-length frames must survive.
      Comm::Packet empty;
      empty.peer = peer;
      out.push_back(std::move(empty));
      auto in = c.exchange(std::move(out));
      ASSERT_EQ(in.size(), 5u);
      for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(in[k].peer, (c.rank() + c.nranks() - 1) % c.nranks());
        ASSERT_EQ(in[k].data.size(), static_cast<std::size_t>(k + 1));
        EXPECT_EQ(in[k].data[0],
                  std::byte{static_cast<unsigned char>(16 * round + k)});
      }
      EXPECT_TRUE(in[4].data.empty());
    }
  };

  BspEngine::Options o;
  o.nranks = 4;
  auto coalesced = BspEngine(o).run(program);
  EXPECT_GT(coalesced.comm_counters.coalesced_batches, 0u);
}

TEST(CoalesceDifferential, DropAndCorruptionTargetLogicalPacketsOnBothPaths) {
  // Message faults are applied to *logical* packets before the coalescer
  // packs them, so a drop or corruption must produce byte-for-byte the
  // same delivered payloads on every execution backend — the process
  // backend ships the packed messages over its sockets. Shape: several
  // packets per peer with faults aimed mid-stream.
  FaultPlan plan;
  plan.drop_message(0, /*at_exchange=*/0, /*peer=*/1);
  plan.corrupt_message(2, /*at_exchange=*/1);  // all peers
  plan.drop_message(3, /*at_exchange=*/1, /*peer=*/0);

  auto digests = std::make_shared<std::vector<std::uint64_t>>();
  auto program = [digests](Comm& c) {
    std::uint64_t acc = 0x9E3779B97F4A7C15ull;
    for (int round = 0; round < 3; ++round) {
      std::vector<Comm::Packet> out;
      for (std::uint32_t peer = 0; peer < c.nranks(); ++peer) {
        if (peer == c.rank()) continue;
        for (int k = 0; k < 3; ++k) {
          Comm::Packet p;
          p.peer = peer;
          p.data.assign(static_cast<std::size_t>(4 + k),
                        std::byte{static_cast<unsigned char>(
                            c.rank() * 64 + round * 8 + k)});
          out.push_back(std::move(p));
        }
      }
      for (const Comm::Packet& in : c.exchange(std::move(out))) {
        acc = acc * 1099511628211ull + in.peer + in.data.size();
        for (std::byte b : in.data) {
          acc = acc * 1099511628211ull + std::to_integer<unsigned>(b);
        }
      }
    }
    auto all = c.allgather<std::uint64_t>(acc);
    if (c.rank() == 0) *digests = all;
  };

  std::vector<std::uint64_t> reference;
  std::vector<double> reference_clocks;
  for (const exec::Backend backend :
       {exec::Backend::kFiber, exec::Backend::kThreads,
        exec::Backend::kProcess}) {
    SCOPED_TRACE(exec::backend_name(backend));
    BspEngine::Options o;
    o.nranks = 4;
    o.backend = backend;
    o.faults = plan;
    digests->clear();
    auto stats = BspEngine(o).run(program);
    ASSERT_EQ(digests->size(), 4u);
    if (reference.empty()) {
      reference = *digests;
      reference_clocks = stats.clocks;
    } else {
      EXPECT_EQ(*digests, reference) << "delivered payloads diverged";
      // Faults tamper with payloads, never with the cost model.
      EXPECT_EQ(stats.clocks, reference_clocks);
    }
    EXPECT_TRUE(stats.failed_ranks.empty());
  }
}

// ---------------------------------------------------------------------------
// Pipeline: bit-identical across backends, and to the legacy path
// ---------------------------------------------------------------------------

struct PipelineRun {
  core::ScalaPartResult result;
  std::string jsonl;
};

PipelineRun run_pipeline(const graph::CsrGraph& g, exec::Backend backend,
                         FaultPlan faults,
                         comm::FailureDetectorOptions detector = {}) {
  core::ScalaPartOptions opt;
  opt.nranks = 8;
  opt.backend = backend;
  opt.threads = backend == exec::Backend::kThreads ? 4 : 0;
  opt.faults = std::move(faults);
  opt.detector = detector;
  PipelineRun out;
  obs::Recorder rec;
  {
    obs::ScopedRecording on(rec);
    out.result = core::scalapart_partition(g, opt);
  }
  out.jsonl = obs::jsonl_string(rec);
  return out;
}

// The fault suite both pipeline tests run on delaunay(1500, 5) at 8 ranks,
// with what the per-packet exchange path produced for each plan (on fiber
// and threads alike) before that path was deleted. In the detector case
// the straggler draws a suspicion that is retried, then one that
// escalates, so it is killed and the survivors shrink and recover.
struct FaultCase {
  const char* label;
  FaultPlan plan;
  std::uint64_t legacy_part_fp;   // fingerprint_bytes of part.side
  graph::Weight legacy_cut;
  std::uint64_t legacy_trace_fp;  // RunStats::fingerprint()
  std::vector<std::uint32_t> legacy_failed_ranks;
  comm::FailureDetectorOptions detector = {};
};

std::vector<FaultCase> fault_suite() {
  std::vector<FaultCase> cases;
  cases.push_back({"fault-free", FaultPlan{}, 0x79396346f7ad07dfull, 81,
                   0x5c2c22bca0f82275ull, {}});
  cases.push_back({"crash", FaultPlan{}.kill_in_stage(1, "embed", 4),
                   0xadc0fea1fcc21be3ull, 100, 0xf274948e4e03ee93ull, {1}});
  cases.push_back({"straggler", FaultPlan{}.slow_rank(3, 5.0),
                   0x79396346f7ad07dfull, 81, 0xdb3ed3e9b424e0e9ull, {}});
  comm::FailureDetectorOptions detector;
  detector.deadline_seconds = 5e-3;
  detector.max_retries = 1;
  detector.backoff_seconds = 1e-5;
  cases.push_back({"detector", FaultPlan{}.slow_rank(3, 50.0),
                   0xe8f56af2ae6e55e8ull, 93, 0xab22ff8408aaaab4ull, {3},
                   detector});
  return cases;
}

TEST(CoalescePipeline, FaultSuiteBitIdenticalAcrossBackends) {
  const auto g = graph::gen::delaunay(1500, 5).graph;

  for (const FaultCase& c : fault_suite()) {
    SCOPED_TRACE(c.label);
    const PipelineRun fiber =
        run_pipeline(g, exec::Backend::kFiber, c.plan, c.detector);
    const PipelineRun threads =
        run_pipeline(g, exec::Backend::kThreads, c.plan, c.detector);
    // Partition, clocks, trace fingerprint, and the JSONL trace export
    // must all be byte-for-byte identical between the two backends.
    EXPECT_EQ(fiber.result.part.side, threads.result.part.side);
    EXPECT_EQ(fiber.result.report.cut, threads.result.report.cut);
    EXPECT_EQ(fiber.result.stats.clocks, threads.result.stats.clocks);
    EXPECT_EQ(fiber.result.stats.fingerprint(),
              threads.result.stats.fingerprint());
    EXPECT_EQ(fiber.result.stats.failed_ranks,
              threads.result.stats.failed_ranks);
    ASSERT_FALSE(fiber.jsonl.empty());
    EXPECT_EQ(fiber.jsonl, threads.jsonl) << "JSONL trace diverged";
  }
}

class CoalescePipeline : public ::testing::TestWithParam<exec::Backend> {};

TEST_P(CoalescePipeline, FaultSuiteBitIdenticalToLegacy) {
  // The pipeline never sends two packets to one peer in one superstep, so
  // every packed message is the message the per-packet path sent. The
  // partition, the cut and the trace fingerprint (modeled clocks, per-stage
  // costs, message and byte counts) must match that path's recorded output.
  const auto g = graph::gen::delaunay(1500, 5).graph;

  for (const FaultCase& c : fault_suite()) {
    SCOPED_TRACE(c.label);
    const core::ScalaPartResult r =
        run_pipeline(g, GetParam(), c.plan, c.detector).result;
    EXPECT_EQ(r.stats.comm_counters.coalesced_batches, 0u);
    if (c.detector.enabled()) {
      EXPECT_GT(r.stats.detector.retries, 0u);
      EXPECT_GT(r.stats.detector.escalations, 0u);
    }
    EXPECT_EQ(analysis::fingerprint_bytes(
                  r.part.side.data(),
                  r.part.side.size() * sizeof(r.part.side[0])),
              c.legacy_part_fp);
    EXPECT_EQ(r.report.cut, c.legacy_cut);
    EXPECT_EQ(r.stats.fingerprint(), c.legacy_trace_fp);
    EXPECT_EQ(r.stats.failed_ranks, c.legacy_failed_ranks);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CoalescePipeline,
                         ::testing::Values(exec::Backend::kFiber,
                                           exec::Backend::kThreads),
                         [](const auto& info) {
                           return std::string(exec::backend_name(info.param));
                         });

TEST(CoalesceAudit, ExchangeHeavyProgramPassesBackendAudit) {
  // analysis::audit_backends over the default point set (fiber schedules
  // plus real-thread points): an exchange-heavy program on the coalesced
  // path must fingerprint identically everywhere.
  auto result = std::make_shared<std::vector<std::uint64_t>>();
  analysis::ProgramFactory factory = [result]() {
    result->clear();
    return [result](Comm& c) {
      std::uint64_t acc = 0;
      for (int round = 0; round < 6; ++round) {
        std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> out;
        for (std::uint32_t peer = 0; peer < c.nranks(); ++peer) {
          if (peer != c.rank()) {
            out.emplace_back(
                peer, std::vector<std::uint64_t>{c.rank() * 31ull + round});
          }
        }
        for (const auto& [src, vals] :
             c.exchange_typed<std::uint64_t>(out)) {
          acc = acc * 1099511628211ull + src + vals.at(0);
        }
      }
      auto all = c.allgather<std::uint64_t>(acc);
      if (c.rank() == 0) *result = all;
    };
  };
  BspEngine::Options o;
  o.nranks = 8;
  auto report = analysis::audit_backends(
      o, factory, [result]() -> std::uint64_t {
        return analysis::fingerprint_bytes(
            result->data(), result->size() * sizeof(std::uint64_t));
      });
  EXPECT_TRUE(report.deterministic) << report.str();
}

TEST(CoalesceAudit, PipelineFingerprintAcrossBackendsAndSchedules) {
  // The acceptance sweep: {fiber, threads} x {round-robin, reversed,
  // seeded-shuffle} must yield byte-identical partitions (compared via
  // the same fingerprint the bench gate commits) and trace fingerprints.
  const auto g = graph::gen::delaunay(1200, 4).graph;
  struct Point {
    exec::Backend backend;
    exec::Schedule schedule;
  };
  const std::vector<Point> points = {
      {exec::Backend::kFiber, exec::Schedule::kRoundRobin},
      {exec::Backend::kFiber, exec::Schedule::kReversed},
      {exec::Backend::kFiber, exec::Schedule::kSeededShuffle},
      {exec::Backend::kThreads, exec::Schedule::kRoundRobin},
      {exec::Backend::kThreads, exec::Schedule::kReversed},
      {exec::Backend::kThreads, exec::Schedule::kSeededShuffle},
  };
  std::uint64_t part_fp = 0, trace_fp = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(std::string(exec::backend_name(points[i].backend)) +
                 " schedule " + std::to_string(int(points[i].schedule)));
    core::ScalaPartOptions opt;
    opt.nranks = 8;
    opt.backend = points[i].backend;
    opt.threads = points[i].backend == exec::Backend::kThreads ? 4 : 0;
    opt.schedule = points[i].schedule;
    const auto r = core::scalapart_partition(g, opt);
    const std::uint64_t pf = analysis::fingerprint_bytes(
        r.part.side.data(), r.part.side.size() * sizeof(r.part.side[0]));
    const std::uint64_t tf = r.stats.fingerprint();
    if (i == 0) {
      part_fp = pf;
      trace_fp = tf;
    } else {
      EXPECT_EQ(pf, part_fp) << "partition fingerprint diverged";
      EXPECT_EQ(tf, trace_fp) << "trace fingerprint diverged";
    }
  }
}

TEST(CoalescePipeline, CountersAreDiagnosticNotFingerprinted) {
  // comm_counters must stay out of the fingerprint (like wall_seconds).
  // Pooled arena buffers outlive a run, so a second run of the same
  // program on the same engine reports more arena hits — and must still
  // fingerprint equal.
  auto program = [](Comm& c) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::pair<std::uint32_t, std::vector<std::uint64_t>>> out;
      const std::uint32_t peer = (c.rank() + 1) % c.nranks();
      for (std::uint64_t k = 0; k < 3; ++k) {
        out.emplace_back(peer, std::vector<std::uint64_t>(k + 2, round));
      }
      (void)c.exchange_typed<std::uint64_t>(out);
    }
  };
  BspEngine::Options o;
  o.nranks = 4;
  BspEngine engine(o);
  const auto first = engine.run(program);
  const auto second = engine.run(program);
  EXPECT_GT(first.comm_counters.coalesced_batches, 0u);
  EXPECT_EQ(second.comm_counters.arena_acquires,
            first.comm_counters.arena_acquires);
  EXPECT_GT(second.comm_counters.arena_hits, first.comm_counters.arena_hits);
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

}  // namespace
}  // namespace sp
