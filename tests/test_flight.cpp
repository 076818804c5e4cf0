// sp::obs::flight: the always-on flight recorder, its postmortem dump
// format, and the wall-clock stage profiler.
//
// The contract under test:
//  - the per-rank ring keeps the newest `capacity` records and the
//    stage-wall aggregates survive ring wrap;
//  - a dump round-trips bit-exactly through Postmortem::read (records,
//    string table, metadata, reason), and corrupt dumps are rejected;
//  - diagnose() names killed, lagging, and diverging ranks from the
//    artifact alone, and reconstruct() yields lanes the standard
//    exporters render — including the victim's lane, ended by a
//    terminal "killed" event;
//  - a P=16 crash on either backend leaves a decodable dump behind
//    naming the killed rank and its in-flight stage;
//  - recording perturbs neither partitions nor fingerprints, and the
//    append path stays cheap enough to leave on for every run.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>

#include "comm/fault_plan.hpp"
#include "comm/frame_io.hpp"
#include "core/scalapart.hpp"
#include "exec/executor.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/postmortem.hpp"
#include "obs/recorder.hpp"
#include "obs/stage_names.hpp"

namespace sp::obs::flight {
namespace {

core::ScalaPartOptions pipe_options(std::uint32_t p) {
  core::ScalaPartOptions opt;
  opt.nranks = p;
  return opt;
}

// ---------------------------------------------------------------------------
// Ring buffer + stage-wall aggregation
// ---------------------------------------------------------------------------

TEST(FlightRing, WrapKeepsNewestRecords) {
  FlightRecorder rec(1, 8);
  for (int i = 0; i < 20; ++i) {
    rec.mark(0, "m" + std::to_string(i), "t", 0.1 * i);
  }
  EXPECT_EQ(rec.total_appends(0), 20u);
  ASSERT_EQ(rec.stored(0), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const Record& r = rec.record(0, i);
    EXPECT_EQ(r.kind, Kind::kMark);
    // Oldest-first: the survivors are marks 12..19.
    EXPECT_EQ(rec.string_at(r.name), "m" + std::to_string(12 + i));
    EXPECT_DOUBLE_EQ(r.t, 0.1 * static_cast<double>(12 + i));
  }
}

TEST(FlightRing, StageAggregationSurvivesWrap) {
  FlightRecorder rec(1, 4);
  for (int i = 0; i < 10; ++i) {
    rec.span_begin(0, "work", "stage", 2, 1.0 * i);
    rec.span_end(0, 1.0 * i + 0.25);
  }
  // 20 records through a 4-slot ring: the event stream is bounded...
  EXPECT_EQ(rec.total_appends(0), 20u);
  EXPECT_EQ(rec.stored(0), 4u);
  // ...but the profile, accumulated at span close, saw every instance.
  const auto& agg = rec.stage_wall(0);
  ASSERT_EQ(agg.size(), 1u);
  const StageAgg& a = agg.begin()->second;
  EXPECT_EQ(a.count, 10u);
  EXPECT_NEAR(a.modeled_seconds, 2.5, 1e-12);
  EXPECT_GE(a.wall_seconds, 0.0);
}

TEST(FlightProfile, ProfileIsSortedWithPerRankStats) {
  FlightRecorder rec(4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    rec.span_begin(r, stages::kEmbed, "stage", -1, 0.0);
    rec.span_end(r, 1.0 + r);
    rec.span_begin(r, stages::kCoarsen, "stage", -1, 2.0);
    rec.span_end(r, 2.5);
  }
  auto prof = wall_profile(rec);
  ASSERT_EQ(prof.size(), 2u);
  // Sorted by (cat, name, level), independent of intern order.
  EXPECT_EQ(prof[0].name, stages::kCoarsen);
  EXPECT_EQ(prof[1].name, stages::kEmbed);
  for (const StageWallStat& s : prof) {
    EXPECT_EQ(s.cat, "stage");
    EXPECT_EQ(s.participants, 4u);
    EXPECT_EQ(s.count, 4u);
    EXPECT_GE(s.imbalance, 1.0 - 1e-9);
    EXPECT_LE(s.wall_min, s.wall_median + 1e-12);
    EXPECT_LE(s.wall_median, s.wall_max + 1e-12);
    EXPECT_GE(s.wall_mean, 0.0);
  }
  // Rank 3's embed span modeled 0 -> 4 seconds, the key's maximum.
  EXPECT_NEAR(prof[1].modeled_max, 4.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Dump round-trip
// ---------------------------------------------------------------------------

TEST(FlightDump, RoundTripPreservesRecordsStringsAndMeta) {
  FlightRecorder rec(2, 16);
  rec.set_meta("seed", "42");
  rec.set_meta("backend", "fiber");
  rec.set_meta("seed", "43");  // overwrite, not duplicate

  const std::string stage = "embed";
  rec.span_begin(0, "embed", "stage", 3, 1.0);
  rec.on_arrive(0, 7, 11, 1.5, "allreduce", &stage);
  comm::CommOpEvent ev;
  ev.world_rank = 0;
  ev.op = "allreduce";
  ev.stage = &stage;
  ev.group = 7;
  ev.seq = 11;
  ev.t_begin = 1.5;
  ev.t_end = 2.0;
  ev.bytes = 64;
  rec.on_comm_op(ev);
  rec.span_end(0, 2.5);
  rec.mark(1, "note", "test", 0.5);
  rec.on_rank_killed(1, 3.0, &stage);
  EXPECT_TRUE(rec.killed(1));
  EXPECT_FALSE(rec.killed(0));

  const std::string path = testing::TempDir() + "/flight_roundtrip.spfr";
  dump(rec, path, "unit-test reason");

  Postmortem pm = Postmortem::read(path);
  EXPECT_EQ(pm.format, 1u);
  EXPECT_EQ(pm.reason, "unit-test reason");
  EXPECT_EQ(pm.nranks, 2u);
  EXPECT_EQ(pm.capacity, 16u);
  EXPECT_EQ(pm.meta_value("seed"), "43");
  EXPECT_EQ(pm.meta_value("backend"), "fiber");
  EXPECT_EQ(pm.meta_value("absent"), "");
  ASSERT_EQ(pm.lanes.size(), 2u);

  const Postmortem::Lane& l0 = pm.lanes[0];
  EXPECT_EQ(l0.rank, 0u);
  EXPECT_EQ(l0.total_appends, 4u);
  ASSERT_EQ(l0.records.size(), 4u);
  EXPECT_EQ(l0.records[0].kind, Kind::kSpanBegin);
  EXPECT_EQ(pm.str(l0.records[0].name), "embed");
  EXPECT_EQ(pm.str(l0.records[0].aux), "stage");
  EXPECT_EQ(l0.records[0].level, 3);
  EXPECT_DOUBLE_EQ(l0.records[0].t, 1.0);
  EXPECT_EQ(l0.records[1].kind, Kind::kArrive);
  EXPECT_EQ(pm.str(l0.records[1].name), "allreduce");
  EXPECT_EQ(l0.records[1].a, 7u);
  EXPECT_EQ(l0.records[1].b, 11u);
  EXPECT_EQ(l0.records[2].kind, Kind::kCommOp);
  EXPECT_EQ(pm.str(l0.records[2].name), "allreduce");
  EXPECT_EQ(pm.str(l0.records[2].aux), "embed");
  EXPECT_EQ(l0.records[2].c, 64u);
  EXPECT_DOUBLE_EQ(l0.records[2].t, 2.0);
  EXPECT_EQ(l0.records[3].kind, Kind::kSpanEnd);
  // A span end carries its begin time bit-cast in `a`.
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(l0.records[3].a), 1.0);

  const Postmortem::Lane& l1 = pm.lanes[1];
  EXPECT_EQ(l1.rank, 1u);
  ASSERT_EQ(l1.records.size(), 2u);
  EXPECT_EQ(l1.records.back().kind, Kind::kKilled);
  EXPECT_EQ(pm.str(l1.records.back().aux), "embed");
  EXPECT_DOUBLE_EQ(l1.records.back().t, 3.0);
}

TEST(FlightDump, CorruptDumpsAreRejected) {
  FlightRecorder rec(1, 8);
  rec.mark(0, "m", "t", 1.0);
  const std::string path = testing::TempDir() + "/flight_corrupt.spfr";
  dump(rec, path, "r");
  ASSERT_NO_THROW(Postmortem::read(path));
  // Truncation (a crash mid-write, a torn copy) must fail the checksum
  // or the frame bounds check, never yield a silently partial dump.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);
  EXPECT_THROW(Postmortem::read(path), comm::FrameError);
  EXPECT_THROW(Postmortem::read(testing::TempDir() + "/no_such_dump.spfr"),
               comm::FrameError);
}

TEST(FlightDump, AbnormalDumpIsWrittenOnceAndPathRecorded) {
  FlightRecorder rec(1, 8);
  rec.mark(0, "m", "t", 1.0);
  const std::string dir = testing::TempDir() + "/flight_once";
  const std::string path = dump_abnormal(rec, dir, "first failure");
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(rec.dumped());
  EXPECT_EQ(rec.dump_path(), path);
  // A second trigger (an outer handler seeing the same unwind) is a
  // no-op: the first, innermost dump wins.
  EXPECT_TRUE(dump_abnormal(rec, dir, "outer handler").empty());
  EXPECT_EQ(rec.dump_path(), path);
  Postmortem pm = Postmortem::read(path);
  EXPECT_EQ(pm.reason, "first failure");
}

// ---------------------------------------------------------------------------
// Diagnosis
// ---------------------------------------------------------------------------

TEST(FlightDiagnose, NamesKilledLaggardAndDivergedRanks) {
  FlightRecorder rec(4, 16);
  const std::string embed = "embed";
  const std::string partition = "partition";
  // Ranks 0/1: the majority rendezvous (group 1, seq 9).
  rec.on_arrive(0, 1, 9, 5.0, "allreduce", &partition);
  rec.on_arrive(1, 1, 9, 5.0, "allreduce", &partition);
  // Rank 2: killed in embed.
  rec.on_rank_killed(2, 2.0, &embed);
  // Rank 3: surviving laggard stuck at an older rendezvous.
  rec.on_arrive(3, 1, 7, 3.0, "allreduce", &embed);

  const std::string path = testing::TempDir() + "/flight_diag.spfr";
  dump(rec, path, "deadlock diagnostic");
  Diagnosis d = diagnose(Postmortem::read(path));

  ASSERT_EQ(d.killed.size(), 1u);
  EXPECT_EQ(d.killed[0].rank, 2u);
  EXPECT_EQ(d.killed[0].stage, "embed");
  EXPECT_DOUBLE_EQ(d.killed[0].t, 2.0);
  EXPECT_TRUE(d.has_laggard);
  EXPECT_EQ(d.laggard_rank, 3u);
  EXPECT_EQ(d.laggard_stage, "embed");
  EXPECT_DOUBLE_EQ(d.leader_clock, 5.0);
  ASSERT_EQ(d.diverged.size(), 1u);
  EXPECT_EQ(d.diverged[0], 3u);
  EXPECT_EQ(d.majority_op, "allreduce");
  EXPECT_EQ(d.majority_group, 1u);
  EXPECT_EQ(d.majority_seq, 9u);

  const std::string s = d.summary();
  EXPECT_NE(s.find("KILLED rank=2 stage=embed"), std::string::npos);
  EXPECT_NE(s.find("LAGGARD rank=3"), std::string::npos);
  EXPECT_NE(s.find("DIVERGED rank=3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Reconstruction + exporter edge cases
// ---------------------------------------------------------------------------

TEST(FlightExport, EmptyAndSingleRankReconstructionsExport) {
  // Empty run: a dump with zero appended events still decodes, exports,
  // and diagnoses as clean.
  FlightRecorder empty(2, 8);
  const std::string p0 = testing::TempDir() + "/flight_empty.spfr";
  dump(empty, p0, "empty");
  Postmortem pm0 = Postmortem::read(p0);
  EXPECT_EQ(pm0.nranks, 2u);
  Recorder rec0;
  reconstruct(pm0, rec0);
  EXPECT_TRUE(validate_lanes(rec0).empty());
  EXPECT_NE(chrome_trace_string(rec0, "postmortem").find("traceEvents"),
            std::string::npos);
  EXPECT_EQ(diagnose(pm0).summary(), "no anomaly detected\n");

  // Single-rank run: one lane of spans + marks renders in both formats.
  FlightRecorder one(1, 32);
  one.span_begin(0, "main", "stage", -1, 0.0);
  one.mark(0, "tick", "test", 0.5);
  one.span_end(0, 1.0);
  const std::string p1 = testing::TempDir() + "/flight_single.spfr";
  dump(one, p1, "single");
  Recorder rec1;
  reconstruct(Postmortem::read(p1), rec1);
  ASSERT_EQ(rec1.num_lanes(), 1u);
  EXPECT_TRUE(validate_lanes(rec1).empty());
  EXPECT_NE(chrome_trace_string(rec1, "postmortem").find("\"rank 0\""),
            std::string::npos);
  EXPECT_FALSE(jsonl_string(rec1).empty());
}

TEST(FlightExport, DeadRankLaneKeepsTerminalKillEvent) {
  FlightRecorder rec(3, 16);
  const std::string embed = "embed";
  for (std::uint32_t r = 0; r < 3; ++r) {
    rec.span_begin(r, "scalapart", "pipeline", -1, 0.0);
  }
  rec.on_rank_killed(1, 1.5, &embed);
  rec.span_end(0, 2.0);
  rec.span_end(2, 2.0);
  // Rank 1's span stays open: it died inside it.

  const std::string path = testing::TempDir() + "/flight_dead_lane.spfr";
  dump(rec, path, "kill");
  Recorder out;
  reconstruct(Postmortem::read(path), out);
  ASSERT_EQ(out.num_lanes(), 3u);
  // The victim's open span is closed at the lane's final timestamp, so
  // the reconstruction still validates.
  EXPECT_TRUE(validate_lanes(out).empty());
  bool saw_kill = false;
  for (const Event& evn : out.lane(1)) {
    saw_kill |= evn.kind == EventKind::kInstant && evn.cat == "fault" &&
                evn.name == "killed";
  }
  EXPECT_TRUE(saw_kill);
  const std::string chrome = chrome_trace_string(out, "postmortem");
  EXPECT_NE(chrome.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(chrome.find("killed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Overhead (satellite: the always-on budget)
// ---------------------------------------------------------------------------

TEST(FlightOverhead, AppendStaysCheap) {
  FlightRecorder rec(1, 256);
  constexpr int kN = 200000;
  // sp-lint-allow(wall-clock): measuring the recorder's own overhead
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kN; ++i) {
    rec.mark(0, "overhead-probe", "bench", 1e-9 * i);
  }
  // sp-lint-allow(wall-clock): measuring the recorder's own overhead
  const auto t1 = std::chrono::steady_clock::now();
  const double per_append_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kN;
  // Deliberately generous CI-safe bound: an append is a ring store plus
  // one interned-string lookup (tens of nanoseconds); 10 µs only flags
  // a pathological regression such as an allocation on the append path.
  EXPECT_LT(per_append_ns, 10000.0);
  EXPECT_EQ(rec.total_appends(0), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(rec.stored(0), 256u);
}

// ---------------------------------------------------------------------------
// Pipeline integration
// ---------------------------------------------------------------------------

TEST(FlightPipeline, RecorderDoesNotPerturbPartitionOrFingerprint) {
  auto g = graph::gen::delaunay(1400, 11).graph;
  auto opt = pipe_options(8);
  auto off = opt;
  off.flight_capacity = 0;  // no recorder at all
  auto bare = core::scalapart_partition(g, off);
  // Auto-install path: scalapart owns the recorder.
  auto auto_on = core::scalapart_partition(g, opt);
  // Outer-recorder path: a harness owns it and scalapart reuses it.
  FlightRecorder frec(8);
  core::ScalaPartResult outer;
  {
    ScopedFlightRecording on(frec);
    outer = core::scalapart_partition(g, opt);
  }
  EXPECT_EQ(bare.part.side, auto_on.part.side);
  EXPECT_EQ(bare.part.side, outer.part.side);
  EXPECT_EQ(bare.report.cut, auto_on.report.cut);
  EXPECT_DOUBLE_EQ(bare.modeled_seconds, auto_on.modeled_seconds);
  EXPECT_EQ(bare.stats.fingerprint(), auto_on.stats.fingerprint());
  EXPECT_EQ(bare.stats.fingerprint(), outer.stats.fingerprint());

  // The reused recorder really recorded: comm ops in the ring, canonical
  // stages in the wall profile.
  EXPECT_GT(frec.total_appends(0), 0u);
  std::set<std::string> names;
  for (const StageWallStat& s : wall_profile(frec)) {
    if (s.cat == "stage") names.insert(s.name);
  }
  EXPECT_TRUE(names.count(stages::kCoarsen));
  EXPECT_TRUE(names.count(stages::kEmbed));
  EXPECT_TRUE(names.count(stages::kPartition));
}

void crash_dump_case(exec::Backend backend) {
  auto g = graph::gen::delaunay(1800, 5).graph;
  auto opt = pipe_options(16);
  opt.backend = backend;
  opt.recover_on_failure = false;
  opt.faults.kill_in_stage(3, stages::kEmbed);
  opt.flight_dir = testing::TempDir();
  FlightRecorder frec(16);
  {
    ScopedFlightRecording on(frec);
    EXPECT_THROW(core::scalapart_partition(g, opt), comm::RankFailedError);
  }
  // scalapart reused the outer recorder and dumped on the way out; the
  // harness can read the artifact path back.
  ASSERT_TRUE(frec.dumped());
  ASSERT_FALSE(frec.dump_path().empty());

  Postmortem pm = Postmortem::read(frec.dump_path());
  EXPECT_EQ(pm.nranks, 16u);
  EXPECT_NE(pm.reason.find("RankFailedError"), std::string::npos);
  EXPECT_EQ(pm.meta_value("backend"), exec::backend_name(backend));
  EXPECT_EQ(pm.meta_value("nranks"), "16");
  EXPECT_EQ(pm.meta_value("recover_on_failure"), "false");

  Diagnosis d = diagnose(pm);
  ASSERT_EQ(d.killed.size(), 1u);
  EXPECT_EQ(d.killed[0].rank, 3u);
  EXPECT_EQ(d.killed[0].stage, stages::kEmbed);
  EXPECT_NE(d.summary().find("KILLED rank=3 stage=embed"),
            std::string::npos);

  // The reconstruction renders every lane, the victim's included.
  Recorder out;
  reconstruct(pm, out);
  EXPECT_EQ(out.num_lanes(), 16u);
  EXPECT_TRUE(validate_lanes(out).empty());
  EXPECT_NE(chrome_trace_string(out, "postmortem").find("\"rank 3\""),
            std::string::npos);
}

TEST(FlightPipeline, CrashAtP16LeavesDecodableDumpFiber) {
  crash_dump_case(exec::Backend::kFiber);
}

TEST(FlightPipeline, CrashAtP16LeavesDecodableDumpThreads) {
  crash_dump_case(exec::Backend::kThreads);
}

// ---------------------------------------------------------------------------
// Parked-wall accounting (threads backend profiler plumbing)
// ---------------------------------------------------------------------------

TEST(FlightProfile, ThreadsBackendReportsParkedWallFiberReportsZero) {
  auto g = graph::gen::delaunay(900, 3).graph;
  auto opt = pipe_options(4);
  opt.backend = exec::Backend::kThreads;
  auto threads = core::scalapart_partition(g, opt);
  ASSERT_EQ(threads.stats.parked_wall_seconds.size(), 4u);
  for (double s : threads.stats.parked_wall_seconds) EXPECT_GE(s, 0.0);

  opt.backend = exec::Backend::kFiber;
  auto fiber = core::scalapart_partition(g, opt);
  ASSERT_EQ(fiber.stats.parked_wall_seconds.size(), 4u);
  for (double s : fiber.stats.parked_wall_seconds) EXPECT_DOUBLE_EQ(s, 0.0);

  // Diagnostic only: it must not leak into the fingerprint (the two
  // backends produce bit-identical modeled results).
  EXPECT_EQ(threads.stats.fingerprint(), fiber.stats.fingerprint());
}

}  // namespace
}  // namespace sp::obs::flight
