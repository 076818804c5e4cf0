// sp::obs: span tracing, metrics, exporters, and the critical-path report.
//
// The golden-file properties the observability layer guarantees:
//  - every rank lane is a well-formed span tree (balanced B/E, monotone
//    timestamps) for any rank count, schedule, and fault plan;
//  - the serialized JSONL trace is bit-identical across fiber schedules;
//  - recording never perturbs the computation (same partition with and
//    without a recorder installed).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/scalapart.hpp"
#include "exec/executor.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"

namespace sp::obs {
namespace {

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

TEST(ObsJson, EscapesAndInsertionOrder) {
  JsonValue root = JsonValue::object();
  root["b"] = "quote\" slash\\ tab\t nl\n";
  root["a"] = 1;           // inserted after "b": must serialize after it
  root["c"]["nested"] = true;  // null -> object promotion
  JsonValue arr = JsonValue::array();
  arr.push(1.5);
  arr.push(std::string("x"));
  root["d"] = std::move(arr);
  EXPECT_EQ(root.dump(),
            "{\"b\":\"quote\\\" slash\\\\ tab\\t nl\\n\",\"a\":1,"
            "\"c\":{\"nested\":true},\"d\":[1.5,\"x\"]}");
}

TEST(ObsJson, DoublesAreDeterministicAndNonFiniteIsNull) {
  JsonValue v = JsonValue::object();
  v["x"] = 0.1;
  v["inf"] = std::numeric_limits<double>::infinity();
  v["nan"] = std::nan("");
  const std::string a = v.dump();
  EXPECT_EQ(a, v.dump());
  EXPECT_NE(a.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(a.find("\"nan\":null"), std::string::npos);
}

TEST(ObsJson, BackReturnsAppendedElement) {
  JsonValue rows = JsonValue::array();
  rows.push(JsonValue::object());
  rows.back()["k"] = 7;
  EXPECT_EQ(rows.dump(), "[{\"k\":7}]");
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(ObsMetrics, FlattenAggregatesPerKind) {
  MetricsRegistry m;
  m.add("c", 0, 2.0);
  m.add("c", 1, 3.0);
  m.set_gauge("g", 0, 5.0);
  m.set_gauge("g", 1, 9.0);
  m.set_gauge("g", 1, 4.0);  // last write wins within the lane
  m.observe("h", MetricsRegistry::kHostLane, 1.0);
  m.observe("h", MetricsRegistry::kHostLane, 3.0);
  auto flat = m.flatten();
  EXPECT_DOUBLE_EQ(flat.at("c"), 5.0);       // counters sum over lanes
  EXPECT_DOUBLE_EQ(flat.at("g"), 5.0);       // gauges take the lane max
  EXPECT_DOUBLE_EQ(flat.at("h.count"), 2.0);
  EXPECT_DOUBLE_EQ(flat.at("h.sum"), 4.0);
  EXPECT_DOUBLE_EQ(flat.at("h.min"), 1.0);
  EXPECT_DOUBLE_EQ(flat.at("h.max"), 3.0);
  EXPECT_DOUBLE_EQ(flat.at("h.mean"), 2.0);
}

TEST(ObsMetrics, SignAwareLogBuckets) {
  EXPECT_EQ(MetricsRegistry::bucket_of(0.0), 0);
  EXPECT_EQ(MetricsRegistry::bucket_of(1.0), 1);
  EXPECT_EQ(MetricsRegistry::bucket_of(2.0), 2);
  EXPECT_EQ(MetricsRegistry::bucket_of(3.0), 2);
  EXPECT_EQ(MetricsRegistry::bucket_of(4.0), 3);
  EXPECT_EQ(MetricsRegistry::bucket_of(-1.0), -1);
  EXPECT_EQ(MetricsRegistry::bucket_of(-5.0), -3);
}

// ---------------------------------------------------------------------------
// Recorder mechanics (direct, no engine)
// ---------------------------------------------------------------------------

/// Comm-like test double for spans.
struct FakeComm {
  std::uint32_t rank = 0;
  double t = 0.0;
  std::uint32_t world_rank() const { return rank; }
  double clock() const { return t; }
  comm::CostSnapshot cost_snapshot() const { return {}; }
};

TEST(ObsRecorder, SpanEndStampsNameAndDuration) {
  Recorder rec;
  rec.span_begin(2, "stage", "stage", -1, 1.0, {});
  rec.span_begin(2, "level", "level", 3, 2.0, {});
  rec.span_end(2, 5.0, {});
  rec.span_end(2, 7.0, {});
  ASSERT_EQ(rec.num_lanes(), 3u);
  const auto& lane = rec.lane(2);
  ASSERT_EQ(lane.size(), 4u);
  EXPECT_EQ(lane[2].kind, EventKind::kEnd);
  EXPECT_EQ(lane[2].name, "level");
  EXPECT_EQ(lane[2].level, 3);
  EXPECT_DOUBLE_EQ(lane[2].dur, 3.0);
  EXPECT_EQ(lane[3].name, "stage");
  EXPECT_DOUBLE_EQ(lane[3].dur, 6.0);
  EXPECT_EQ(rec.open_spans(), 0u);
  EXPECT_TRUE(validate_lanes(rec).empty());
}

TEST(ObsRecorder, ScopedRecordingNestsAndRestores) {
  EXPECT_EQ(Recorder::current(), nullptr);
  Recorder outer, inner;
  {
    ScopedRecording a(outer);
    EXPECT_EQ(Recorder::current(), &outer);
    {
      ScopedRecording b(inner);
      EXPECT_EQ(Recorder::current(), &inner);
    }
    EXPECT_EQ(Recorder::current(), &outer);
  }
  EXPECT_EQ(Recorder::current(), nullptr);
}

TEST(ObsRecorder, ValidatorFlagsImbalancedLanes) {
  Recorder rec;
  rec.span_begin(0, "open", "stage", -1, 1.0, {});
  auto violations = validate_lanes(rec);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("left open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented ScalaPart runs
// ---------------------------------------------------------------------------

core::ScalaPartOptions base_options(std::uint32_t p) {
  core::ScalaPartOptions opt;
  opt.nranks = p;
  return opt;
}

TEST(ObsPipeline, FourRankTraceIsSchemaValid) {
  auto g = graph::gen::delaunay(1500, 3).graph;
  Recorder rec;
  {
    ScopedRecording on(rec);
    core::scalapart_partition(g, base_options(4));
  }
  EXPECT_EQ(rec.num_lanes(), 4u);
  EXPECT_EQ(rec.open_spans(), 0u);
  auto violations = validate_lanes(rec);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations[0];

  // Per lane: B/E balanced and the outermost span is the pipeline span.
  for (std::uint32_t r = 0; r < rec.num_lanes(); ++r) {
    const auto& lane = rec.lane(r);
    ASSERT_FALSE(lane.empty());
    EXPECT_EQ(lane.front().kind, EventKind::kBegin);
    EXPECT_EQ(lane.front().name, "scalapart");
    std::size_t begins = 0, ends = 0;
    for (const Event& ev : lane) {
      begins += ev.kind == EventKind::kBegin;
      ends += ev.kind == EventKind::kEnd;
    }
    EXPECT_EQ(begins, ends) << "rank " << r;
  }

  // The Chrome trace is loadable JSON with one named lane per rank.
  const std::string chrome = chrome_trace_string(rec);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_NE(chrome.find("\"rank " + std::to_string(r) + "\""),
              std::string::npos);
  }
}

TEST(ObsPipeline, JsonlBitIdenticalAcrossSchedules) {
  auto g = graph::gen::delaunay(1200, 7).graph;
  std::vector<std::string> dumps;
  std::vector<std::string> metric_dumps;
  for (comm::Schedule s :
       {comm::Schedule::kRoundRobin, comm::Schedule::kReversed,
        comm::Schedule::kSeededShuffle}) {
    auto opt = base_options(4);
    opt.schedule = s;
    Recorder rec;
    {
      ScopedRecording on(rec);
      core::scalapart_partition(g, opt);
    }
    dumps.push_back(jsonl_string(rec));
    metric_dumps.push_back(rec.metrics().to_json().dump());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
  EXPECT_EQ(metric_dumps[0], metric_dumps[1]);
  EXPECT_EQ(metric_dumps[0], metric_dumps[2]);
  EXPECT_FALSE(dumps[0].empty());
}

TEST(ObsPipeline, SixteenRankLanesAndNestedSpans) {
  auto g = graph::gen::grid2d(45, 45).graph;
  Recorder rec;
  core::ScalaPartResult r;
  {
    ScopedRecording on(rec);
    r = core::scalapart_partition(g, base_options(16));
  }
  EXPECT_EQ(rec.num_lanes(), 16u);
  EXPECT_TRUE(validate_lanes(rec).empty());

  // Rank 0 runs every stage: its lane must nest pipeline > stage > level.
  std::set<std::string> stage_names, level_names;
  int max_depth = 0, depth = 0;
  for (const Event& ev : rec.lane(0)) {
    if (ev.kind == EventKind::kBegin) {
      max_depth = std::max(max_depth, ++depth);
      if (ev.cat == "stage") stage_names.insert(ev.name);
      if (ev.cat == "level") level_names.insert(ev.name);
    } else if (ev.kind == EventKind::kEnd) {
      --depth;
    }
  }
  EXPECT_GE(max_depth, 3);
  EXPECT_TRUE(stage_names.count(stages::kCoarsen));
  EXPECT_TRUE(stage_names.count(stages::kEmbed));
  EXPECT_TRUE(stage_names.count(stages::kPartition));
  EXPECT_TRUE(level_names.count(stages::kCoarsen));
  EXPECT_TRUE(level_names.count(stages::kEmbed));

  // Comm ops surfaced as X events with superstep tags.
  bool saw_comm = false;
  for (const Event& ev : rec.lane(0)) {
    if (ev.kind == EventKind::kComplete) {
      saw_comm = true;
      EXPECT_GE(ev.superstep, 0);
      EXPECT_GE(ev.dur, 0.0);
    }
  }
  EXPECT_TRUE(saw_comm);

  // Wired metrics reached the registry.
  auto flat = rec.metrics().flatten();
  EXPECT_GT(flat.at("comm/messages"), 0.0);
  EXPECT_GT(flat.at("comm/bytes"), 0.0);
  EXPECT_GT(flat.at("embed/ghost_msgs"), 0.0);
  EXPECT_GT(flat.at("embed/ghost_bytes"), 0.0);
  EXPECT_GT(flat.at("coarsen/vertices.L0"), 0.0);
  EXPECT_GT(flat.at("refine/fm_passes"), 0.0);

  // Critical-path report names a rank and a stage; imbalance >= 1.
  Report rep = analyze(r.stats, &rec);
  EXPECT_DOUBLE_EQ(rep.makespan, r.stats.makespan());
  EXPECT_FALSE(rep.critical_stage.empty());
  EXPECT_GT(rep.critical_stage_seconds, 0.0);
  ASSERT_FALSE(rep.stages.empty());
  for (const auto& s : rep.stages) {
    EXPECT_GE(s.imbalance, 1.0 - 1e-9) << s.stage;
    EXPECT_GE(s.max_seconds, s.mean_seconds - 1e-12) << s.stage;
    EXPECT_GE(s.participants, 1u) << s.stage;
  }
  // Stages are sorted by descending max time; the dominant one is first.
  EXPECT_EQ(rep.stages.front().stage, rep.critical_stage);
  ASSERT_FALSE(rep.levels.empty());
  // Levels include both span families.
  std::set<std::string> families;
  for (const auto& l : rep.levels) families.insert(l.name);
  EXPECT_TRUE(families.count(stages::kCoarsen));
  EXPECT_TRUE(families.count(stages::kEmbed));
  const std::string summary = rep.summary();
  EXPECT_NE(summary.find("critical path"), std::string::npos);
  EXPECT_NE(summary.find(rep.critical_stage), std::string::npos);
}

// A run with no observer at all (no Recorder, flight recorder disabled)
// and a run under a Recorder plus the flight recorder scalapart installs
// for itself compute the same partition, clocks and trace fingerprint on
// every backend.
TEST(ObsPipeline, RecordingDoesNotPerturbThePartition) {
  auto g = graph::gen::delaunay(1400, 11).graph;
  for (const exec::Backend backend :
       {exec::Backend::kFiber, exec::Backend::kThreads,
        exec::Backend::kProcess}) {
    SCOPED_TRACE(exec::backend_name(backend));
    auto opt = base_options(8);
    opt.backend = backend;
    auto bare_opt = opt;
    bare_opt.flight_capacity = 0;
    ASSERT_EQ(Recorder::current(), nullptr);
    ASSERT_EQ(flight::FlightRecorder::current(), nullptr);
    auto bare = core::scalapart_partition(g, bare_opt);
    Recorder rec;
    core::ScalaPartResult traced;
    {
      ScopedRecording on(rec);
      traced = core::scalapart_partition(g, opt);
    }
    ASSERT_GT(opt.flight_capacity, 0u);
    ASSERT_GT(rec.num_lanes(), 0u);
    EXPECT_FALSE(rec.lane(0).empty());
    EXPECT_EQ(bare.part.side, traced.part.side);
    EXPECT_EQ(bare.report.cut, traced.report.cut);
    EXPECT_EQ(bare.modeled_seconds, traced.modeled_seconds);
    EXPECT_EQ(bare.stats.clocks, traced.stats.clocks);
    EXPECT_EQ(bare.stats.fingerprint(), traced.stats.fingerprint());
  }
}

TEST(ObsPipeline, FaultedRunKeepsLanesBalanced) {
  auto g = graph::gen::delaunay(1500, 5).graph;
  auto opt = base_options(8);
  auto clean = core::scalapart_partition(g, opt);
  opt.faults.kill_at_time(1, 0.5 * clean.stats.makespan());
  Recorder rec;
  core::ScalaPartResult r;
  {
    ScopedRecording on(rec);
    r = core::scalapart_partition(g, opt);
  }
  ASSERT_EQ(r.recovery.failed_ranks, (std::vector<std::uint32_t>{1}));
  // A killed fiber unwinds through its open spans: every lane still
  // closes, including the victim's.
  EXPECT_EQ(rec.open_spans(), 0u);
  auto violations = validate_lanes(rec);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations[0];
  // The recovery instant + metrics made it into the trace.
  bool saw_mark = false;
  for (std::uint32_t lane = 0; lane < rec.num_lanes(); ++lane) {
    for (const Event& ev : rec.lane(lane)) {
      saw_mark |= ev.kind == EventKind::kInstant && ev.cat == "fault";
    }
  }
  EXPECT_TRUE(saw_mark);
  auto flat = rec.metrics().flatten();
  EXPECT_GE(flat.at("fault/recoveries"), 1.0);
  EXPECT_GT(flat.at("fault/checkpoints"), 0.0);
  // And the report carries the failure downstream (satellite: the
  // fault_recovery bench JSON is machine-readable).
  Report rep = analyze(r.stats, &rec);
  EXPECT_EQ(rep.failed_ranks, r.recovery.failed_ranks);
  const std::string json = rep.to_json().dump();
  EXPECT_NE(json.find("\"failed_ranks\":[1]"), std::string::npos);
}

}  // namespace
}  // namespace sp::obs
