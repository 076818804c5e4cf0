// Chaos-hardened recovery: durable checkpoints (frame I/O, cold restart,
// bit-identity), recovery budgets and RecoveryExhaustedError, the
// timeout-based failure detector, and FaultPlan validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "comm/engine.hpp"
#include "comm/frame_io.hpp"
#include "core/checkpoint.hpp"
#include "core/scalapart.hpp"
#include "graph/generators.hpp"

namespace sp {
namespace {

using comm::BspEngine;
using comm::Comm;
using comm::FaultPlan;
using comm::FaultPlanError;
using comm::FrameError;
using comm::RankFailedError;
using core::CheckpointError;
using core::RecoveryExhaustedError;

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

TEST(FrameIo, RoundTripsFrames) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  comm::write_frame_header(ss, /*flags=*/7);
  const std::string a = "hello frames";
  const std::vector<std::byte> b(1000, std::byte{0x5C});
  comm::write_frame(ss, a.data(), a.size());
  comm::write_frame(ss, b);
  comm::write_frame(ss, nullptr, 0);  // empty frames are legal

  ss.seekg(0);
  EXPECT_EQ(comm::read_frame_header(ss), 7u);
  const auto ra = comm::read_frame(ss, 0);
  ASSERT_EQ(ra.size(), a.size());
  EXPECT_EQ(std::memcmp(ra.data(), a.data(), a.size()), 0);
  EXPECT_EQ(comm::read_frame(ss, 1), b);
  EXPECT_TRUE(comm::read_frame(ss, 2).empty());
}

TEST(FrameIo, DetectsCorruptionTruncationAndBadMagic) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  comm::write_frame_header(ss);
  const std::vector<std::byte> payload(64, std::byte{0x11});
  comm::write_frame(ss, payload);
  std::string raw = ss.str();

  {  // flip one payload byte -> checksum mismatch naming the frame
    std::string bad = raw;
    bad[bad.size() - 20] ^= 0x01;
    std::stringstream in(bad, std::ios::in | std::ios::binary);
    comm::read_frame_header(in);
    try {
      comm::read_frame(in, 0);
      FAIL() << "expected FrameError";
    } catch (const FrameError& e) {
      EXPECT_NE(std::string(e.what()).find("frame 0"), std::string::npos)
          << e.what();
    }
  }
  {  // truncated payload
    std::string bad = raw.substr(0, raw.size() - 16);
    std::stringstream in(bad, std::ios::in | std::ios::binary);
    comm::read_frame_header(in);
    EXPECT_THROW(comm::read_frame(in, 0), FrameError);
  }
  {  // corrupted length word cannot trigger a huge allocation
    std::string bad = raw;
    bad[16] = '\xFF';  // first length byte (after 8B magic + 2x u32)
    bad[20] = '\xFF';
    std::stringstream in(bad, std::ios::in | std::ios::binary);
    comm::read_frame_header(in);
    EXPECT_THROW(comm::read_frame(in, 0, /*max_len=*/1 << 20), FrameError);
  }
  {  // bad magic
    std::string bad = raw;
    bad[0] = 'X';
    std::stringstream in(bad, std::ios::in | std::ios::binary);
    EXPECT_THROW(comm::read_frame_header(in), FrameError);
  }
}

// ---------------------------------------------------------------------------
// FaultPlan validation (engine start)
// ---------------------------------------------------------------------------

TEST(FaultPlanValidation, RejectsOutOfRangeAndMalformedEntries) {
  auto engine_with = [](FaultPlan plan) {
    BspEngine::Options o;
    o.nranks = 4;
    o.faults = std::move(plan);
    BspEngine engine(o);
  };
  EXPECT_THROW(engine_with(FaultPlan{}.kill_at_event(4, 0)), FaultPlanError);
  EXPECT_THROW(engine_with(FaultPlan{}.slow_rank(9, 2.0)), FaultPlanError);
  EXPECT_THROW(engine_with(FaultPlan{}.slow_rank(1, 0.0)), FaultPlanError);
  EXPECT_THROW(engine_with(FaultPlan{}.slow_rank(1, -3.0)), FaultPlanError);
  EXPECT_THROW(engine_with(FaultPlan{}.drop_message(7, 0)), FaultPlanError);
  EXPECT_THROW(engine_with(FaultPlan{}.corrupt_message(0, 0, /*peer=*/12)),
               FaultPlanError);
  // An empty stage name is rejected at plan construction, with guidance.
  try {
    FaultPlan{}.kill_in_stage(0, "", 1);
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& e) {
    EXPECT_NE(std::string(e.what()).find("kill_at_event"), std::string::npos);
  }
  // In-range plans still construct fine.
  engine_with(FaultPlan{}.kill_at_event(3, 0).slow_rank(0, 2.0));
}

TEST(FaultPlanValidation, ScalaPartRejectsBadPlanBeforeRunning) {
  auto g = graph::gen::delaunay(500, 1).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 4;
  opt.faults.kill_at_event(99, 0);
  EXPECT_THROW(core::scalapart_partition(g, opt), FaultPlanError);
}

// ---------------------------------------------------------------------------
// Failure detector (engine level)
// ---------------------------------------------------------------------------

BspEngine::Options detector_opts(std::uint32_t p, FaultPlan plan,
                                 double deadline, std::uint32_t retries,
                                 double backoff) {
  BspEngine::Options o;
  o.nranks = p;
  o.faults = std::move(plan);
  o.detector.deadline_seconds = deadline;
  o.detector.max_retries = retries;
  o.detector.backoff_seconds = backoff;
  return o;
}

TEST(FailureDetector, EscalatesPersistentStraggler) {
  FaultPlan plan;
  plan.slow_rank(2, 50.0);
  // ~1ms of compute per step; rank 2 lags ~49ms >> the 1ms deadline.
  BspEngine engine(detector_opts(4, plan, 1e-3, /*retries=*/2, 1e-3));
  std::vector<int> caught(4, 0);
  auto stats = engine.run([&](Comm& c) {
    try {
      for (int i = 0; i < 10; ++i) {
        c.add_compute(1e6);
        c.barrier();
      }
      FAIL() << "rank " << c.rank() << " missed the detector kill";
    } catch (const RankFailedError& e) {
      EXPECT_EQ(e.failed_ranks(), std::vector<std::uint32_t>{2});
      caught[c.rank()] = 1;
    }
  });
  EXPECT_EQ(stats.failed_ranks, std::vector<std::uint32_t>{2});
  EXPECT_EQ(caught, (std::vector<int>{1, 1, 0, 1}));
  // Two retries absorbed, the third suspicion escalated.
  EXPECT_EQ(stats.detector.suspicions, 3u);
  EXPECT_EQ(stats.detector.retries, 2u);
  EXPECT_EQ(stats.detector.escalations, 1u);
  EXPECT_GT(stats.detector.wait_seconds, 0.0);
}

TEST(FailureDetector, RetriesChargeBackoffWithoutKilling) {
  FaultPlan plan;
  plan.slow_rank(1, 30.0);
  auto program = [](Comm& c) {
    for (int i = 0; i < 3; ++i) {
      c.add_compute(1e6);
      c.barrier();
    }
  };
  // Budget of 10 retries over only 3 rendezvous: suspicions never
  // escalate, every member pays the modeled backoff.
  BspEngine with(detector_opts(4, plan, 1e-3, /*retries=*/10, 2e-3));
  auto a = with.run(program);
  EXPECT_TRUE(a.failed_ranks.empty());
  EXPECT_EQ(a.detector.suspicions, 3u);
  EXPECT_EQ(a.detector.retries, 3u);
  EXPECT_EQ(a.detector.escalations, 0u);
  EXPECT_GT(a.detector.wait_seconds, 0.0);

  BspEngine::Options off_opt;
  off_opt.nranks = 4;
  off_opt.faults = plan;
  BspEngine off(off_opt);
  auto b = off.run(program);
  EXPECT_EQ(b.detector.suspicions, 0u);
  // Backoff is real modeled time: the detector run is strictly slower.
  EXPECT_GT(a.makespan(), b.makespan());

  // Deterministic: replaying the detector run reproduces exact clocks.
  BspEngine again(detector_opts(4, plan, 1e-3, 10, 2e-3));
  auto a2 = again.run(program);
  EXPECT_EQ(a.clocks, a2.clocks);
  EXPECT_EQ(a.detector.wait_seconds, a2.detector.wait_seconds);
}

TEST(FailureDetector, OffByDefaultKeepsCleanRunsUntouched) {
  auto program = [](Comm& c) {
    c.add_compute(1e5 * (c.rank() + 1));  // naturally imbalanced
    c.barrier();
  };
  BspEngine::Options plain;
  plain.nranks = 4;
  BspEngine a(plain);
  auto ra = a.run(program);
  EXPECT_EQ(ra.detector.suspicions, 0u);
  EXPECT_TRUE(ra.failed_ranks.empty());
}

TEST(FailureDetector, ScalaPartShrinksAwayExtremeStraggler) {
  auto g = graph::gen::delaunay(1500, 4).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 8;
  const auto clean = core::scalapart_partition(g, opt);

  auto dopt = opt;
  dopt.faults.slow_rank(3, 200.0);
  dopt.detector.deadline_seconds = 0.2 * clean.modeled_seconds;
  dopt.detector.max_retries = 1;
  dopt.detector.backoff_seconds = 0.001 * clean.modeled_seconds;
  const auto r = core::scalapart_partition(g, dopt);

  // The detector declared the straggler failed and recovery completed
  // the pipeline on a smaller communicator with a valid partition. The
  // casualty list may contain more than the straggler: lag is measured
  // against the earliest arrival, so a rendezvous with idle spares can
  // draw suspicions on busy actives too (DESIGN.md §4a) — cascading
  // detector kills are exactly what multi-fault recovery must survive.
  ASSERT_FALSE(r.recovery.failed_ranks.empty());
  EXPECT_EQ(r.recovery.failed_ranks.front(), 3u);
  EXPECT_GE(r.recovery.recoveries, 1u);
  EXPECT_GE(r.recovery.final_active_ranks, 1u);
  EXPECT_LE(r.recovery.final_active_ranks, 4u);
  EXPECT_GE(r.recovery.detector.escalations, 1u);
  EXPECT_GT(r.report.cut, 0);
  EXPECT_LE(r.report.imbalance, 0.35);
  // The detector saved modeled time versus dragging the straggler along.
  auto sopt = opt;
  sopt.faults.slow_rank(3, 200.0);
  const auto dragged = core::scalapart_partition(g, sopt);
  EXPECT_LT(r.stats.makespan(), dragged.stats.makespan());

  // Replay is bit-identical.
  const auto r2 = core::scalapart_partition(g, dopt);
  EXPECT_EQ(r.part.side, r2.part.side);
  EXPECT_EQ(r.stats.clocks, r2.stats.clocks);
}

TEST(FailureDetector, CoordinateEntryPointHonoursDetector) {
  // sp_pg7nl_partition runs under the options' detector like the graph
  // entry point: a straggler draws suspicions, absorbed here as retries
  // with backoff, and the partition is the clean run's.
  const auto d = graph::gen::delaunay(2000, 3);
  core::ScalaPartOptions opt;
  opt.nranks = 4;
  const auto clean = core::sp_pg7nl_partition(d.graph, d.coords, opt);

  auto dopt = opt;
  dopt.faults.slow_rank(2, 50.0);
  dopt.detector.deadline_seconds = 0.05 * clean.modeled_seconds;
  dopt.detector.max_retries = 1000;
  dopt.detector.backoff_seconds = 0.001 * clean.modeled_seconds;
  const auto r = core::sp_pg7nl_partition(d.graph, d.coords, dopt);
  EXPECT_GT(r.stats.detector.suspicions, 0u);
  EXPECT_EQ(r.stats.detector.retries, r.stats.detector.suspicions);
  EXPECT_EQ(r.stats.detector.escalations, 0u);
  EXPECT_GT(r.stats.detector.wait_seconds, 0.0);
  EXPECT_EQ(r.part.side, clean.part.side);
}

// ---------------------------------------------------------------------------
// Recovery budget / structured exhaustion
// ---------------------------------------------------------------------------

TEST(RecoveryBudget, SecondRecoveryExceedsBudgetOfOne) {
  auto g = graph::gen::delaunay(1500, 2).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 8;
  opt.faults.kill_in_stage(1, "embed", 5);
  opt.faults.kill_in_stage(2, "partition", 0);

  // With budget 2 the run survives both crashes...
  auto ok = opt;
  ok.max_recoveries = 2;
  const auto r = core::scalapart_partition(g, ok);
  EXPECT_EQ(r.recovery.recoveries, 2u);
  EXPECT_EQ(r.recovery.failed_ranks.size(), 2u);

  // ... with budget 1 the second crash raises the structured error.
  auto tight = opt;
  tight.max_recoveries = 1;
  try {
    core::scalapart_partition(g, tight);
    FAIL() << "expected RecoveryExhaustedError";
  } catch (const RecoveryExhaustedError& e) {
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
    EXPECT_EQ(e.stats.recoveries, 1u);
    // The error carries who died even though the budget check aborts
    // before the shrink: both crashed ranks, in order of death.
    EXPECT_EQ(e.stats.failed_ranks, (std::vector<std::uint32_t>{1, 2}));
  }
}

TEST(RecoveryBudget, AllRanksDeadIsStructuredNotUnhandled) {
  auto g = graph::gen::delaunay(500, 3).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 2;
  opt.faults.kill_at_event(0, 0).kill_at_event(1, 0);
  try {
    core::scalapart_partition(g, opt);
    FAIL() << "expected RecoveryExhaustedError";
  } catch (const RecoveryExhaustedError& e) {
    EXPECT_EQ(e.stats.failed_ranks.size(), 2u);
    EXPECT_EQ(e.stats.final_active_ranks, 0u);
  }
  // With recovery off the raw RankFailedError still propagates (the
  // pre-existing contract).
  opt.recover_on_failure = false;
  EXPECT_THROW(core::scalapart_partition(g, opt), RankFailedError);
}

// ---------------------------------------------------------------------------
// Durable checkpoints + cold restart
// ---------------------------------------------------------------------------

class DurableCheckpoint : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir() + "sp_ckpt_" +
                     std::to_string(::testing::UnitTest::GetInstance()
                                        ->random_seed()) +
                     "_" + ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
  void TearDown() override {
    std::remove(core::checkpoint_path(dir_).c_str());
    std::remove(dir_.c_str());
  }
};

TEST_F(DurableCheckpoint, ColdRestartIsBitIdenticalToUninterruptedRun) {
  auto g = graph::gen::delaunay(1500, 7).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 8;
  opt.checkpoint_dir = dir_;

  const auto full = core::scalapart_partition(g, opt);
  EXPECT_GT(full.recovery.checkpoints_persisted, 0u);
  EXPECT_FALSE(full.recovery.resumed_from_disk);

  // Durable persistence must not perturb the answer itself.
  auto plain = opt;
  plain.checkpoint_dir.clear();
  const auto ref = core::scalapart_partition(g, plain);
  EXPECT_EQ(full.part.side, ref.part.side);

  // The file on disk round-trips through the typed loader.
  const auto ckpt = core::load_checkpoint(core::checkpoint_path(dir_));
  EXPECT_EQ(ckpt.num_vertices, g.num_vertices());
  EXPECT_EQ(ckpt.nranks, 8u);
  EXPECT_EQ(ckpt.level, 0u);  // final checkpoint is the finest level
  EXPECT_EQ(ckpt.coords.size(), g.num_vertices());
  EXPECT_EQ(ckpt.owner.size(), g.num_vertices());

  // Cold restart: same options, state comes from disk; the partition is
  // bit-identical to the uninterrupted run.
  const auto resumed = core::resume_from_checkpoint(g, opt);
  EXPECT_TRUE(resumed.recovery.resumed_from_disk);
  EXPECT_EQ(resumed.part.side, full.part.side);
  EXPECT_EQ(resumed.report.cut, full.report.cut);
}

TEST_F(DurableCheckpoint, CrashMidRunThenColdRestartMatchesUninterrupted) {
  auto g = graph::gen::delaunay(1500, 9).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 8;

  // Reference: the uninterrupted, fault-free run.
  const auto ref = core::scalapart_partition(g, opt);

  // A run that crashes hard after the embedding finished (recovery off,
  // so the process "dies" with the raw error) — its durable checkpoints
  // survive on disk.
  auto crash = opt;
  crash.checkpoint_dir = dir_;
  crash.recover_on_failure = false;
  crash.faults.kill_in_stage(1, "partition", 0);
  EXPECT_THROW(core::scalapart_partition(g, crash), RankFailedError);

  // Cold restart in a new "process": resume picks up the finest durable
  // checkpoint and lands on the partition the uninterrupted run computes.
  auto resume = opt;
  resume.checkpoint_dir = dir_;
  const auto resumed = core::resume_from_checkpoint(g, resume);
  EXPECT_TRUE(resumed.recovery.resumed_from_disk);
  EXPECT_EQ(resumed.part.side, ref.part.side);
  EXPECT_EQ(resumed.report.cut, ref.report.cut);
}

TEST_F(DurableCheckpoint, RejectsWrongGraphOptionsAndCorruption) {
  auto g = graph::gen::delaunay(900, 5).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 4;
  opt.checkpoint_dir = dir_;
  core::scalapart_partition(g, opt);
  const std::string path = core::checkpoint_path(dir_);

  {  // different graph
    auto g2 = graph::gen::delaunay(901, 5).graph;
    EXPECT_THROW(core::resume_from_checkpoint(g2, opt), CheckpointError);
  }
  {  // different seed
    auto o2 = opt.with_seed(opt.seed + 1);
    EXPECT_THROW(core::resume_from_checkpoint(g, o2), CheckpointError);
  }
  {  // different rank count
    auto o2 = opt;
    o2.nranks = 8;
    EXPECT_THROW(core::resume_from_checkpoint(g, o2), CheckpointError);
  }
  {  // missing checkpoint_dir is a usage error
    auto o2 = opt;
    o2.checkpoint_dir.clear();
    EXPECT_THROW(core::resume_from_checkpoint(g, o2), CheckpointError);
  }
  {  // flipped payload byte -> checksum failure surfaces as CheckpointError
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
    f.close();
    EXPECT_THROW(core::resume_from_checkpoint(g, opt), CheckpointError);
  }
  {  // truncation
    std::ifstream in(path, std::ios::binary);
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size() / 3));
    out.close();
    EXPECT_THROW(core::resume_from_checkpoint(g, opt), CheckpointError);
  }
}

}  // namespace
}  // namespace sp
