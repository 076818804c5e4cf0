// Executor conformance suite (DESIGN.md §11).
//
// One parameterized battery asserting the full Executor contract on
// every backend — fiber, threads, and the multi-process backend — at
// P ∈ {4, 16}:
//
//   - rendezvous ordering: every collective kind, multi-packet exchange,
//     and split produce the fiber reference's results bit for bit;
//   - poison observation: every survivor of a crash observes a
//     structured RankFailedError (never a hang);
//   - crash-and-shrink: survivors shrink and finish with the reference
//     survivor set, results, and RunStats fingerprint;
//   - deadlock detection: a rank that skips a rendezvous turns into a
//     DeadlockError, not a hang;
//   - exception unwind: a user exception aborts the run and surfaces to
//     the engine.run caller with its type and message intact (over the
//     wire, on the process backend);
//   - event stream: each rank's engine events (comm/events.hpp) match the
//     fiber run's record for record on a crash-free program, and keep
//     their arrival / comm op / pickup structure through a crash and
//     shrink;
//   - bit-identity: analysis::audit_backends over the default point set
//     (which includes the process backend) fingerprints identically,
//     including a shrink-and-recover run.
//
// The reference for every comparison is the fiber backend: its results
// are golden by construction (deterministic cooperative scheduler), so
// conformance means "indistinguishable from fiber on everything modeled".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/determinism.hpp"
#include "comm/engine.hpp"
#include "comm/events.hpp"
#include "exec/executor.hpp"

namespace sp {
namespace {

using comm::BspEngine;
using comm::Comm;
using comm::DeadlockError;
using comm::RankFailedError;
using comm::ReduceOp;
using comm::RunStats;

// gtest names each case after a byte dump of its parameter, so the
// padding is spelled out and zeroed to keep the names the same in every
// build.
struct ConformanceCase {
  exec::Backend backend = exec::Backend::kFiber;
  std::uint8_t pad[3] = {};
  std::uint32_t nranks = 4;
};
static_assert(std::has_unique_object_representations_v<ConformanceCase>);

std::vector<ConformanceCase> conformance_cases() {
  std::vector<ConformanceCase> cases;
  for (exec::Backend b : {exec::Backend::kFiber, exec::Backend::kThreads,
                          exec::Backend::kProcess}) {
    for (std::uint32_t p : {4u, 16u}) {
      cases.push_back({.backend = b, .nranks = p});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<ConformanceCase>& info) {
  return std::string(exec::backend_name(info.param.backend)) + "_P" +
         std::to_string(info.param.nranks);
}

BspEngine::Options opts(exec::Backend b, std::uint32_t p) {
  BspEngine::Options o;
  o.nranks = p;
  o.backend = b;
  o.threads = 4;
  return o;
}

// ---- Rendezvous battery -------------------------------------------------
// Exercises every collective kind, a multi-packet exchange, and split;
// rank 0 gathers everything into host memory (rank 0 always lives in the
// host process, so the capture is backend-agnostic).

struct BatteryResult {
  // One row per rank, gathered to rank 0 in group-rank order.
  struct Row {
    std::int64_t allreduce = 0;
    std::int64_t gathered_digest = 0;
    std::int64_t exchanged = 0;
    std::int64_t subgroup = 0;
    std::int64_t broadcast = 0;
  };
  std::vector<Row> rows;

  bool operator==(const BatteryResult& other) const {
    if (rows.size() != other.rows.size()) return false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& a = rows[i];
      const Row& b = other.rows[i];
      if (a.allreduce != b.allreduce || a.gathered_digest != b.gathered_digest ||
          a.exchanged != b.exchanged || a.subgroup != b.subgroup ||
          a.broadcast != b.broadcast) {
        return false;
      }
    }
    return true;
  }
};

RunStats run_battery(exec::Backend b, std::uint32_t p, BatteryResult* out) {
  out->rows.clear();
  BspEngine engine(opts(b, p));
  return engine.run([out](Comm& c) {
    const auto r = static_cast<std::int64_t>(c.rank());
    const auto p64 = static_cast<std::int64_t>(c.nranks());
    c.set_stage("battery");
    c.add_compute(25.0 * static_cast<double>(r + 1));

    BatteryResult::Row row;
    row.allreduce = c.allreduce<std::int64_t>(r * r + 3, ReduceOp::kSum);

    // Variable-size allgather: rank r contributes r+1 values.
    std::vector<std::int64_t> mine(static_cast<std::size_t>(r + 1), r * 7 + 1);
    auto all =
        c.allgatherv<std::int64_t>(std::span<const std::int64_t>(mine));
    for (std::size_t i = 0; i < all.size(); ++i) {
      row.gathered_digest += static_cast<std::int64_t>(i + 1) * all[i];
    }

    // Two packets per rank, different peers — coalescing and inbox
    // ordering both participate.
    std::vector<std::pair<std::uint32_t, std::vector<std::int64_t>>> outbox;
    outbox.emplace_back(static_cast<std::uint32_t>((r + 1) % p64),
                        std::vector<std::int64_t>{r, r + 10});
    outbox.emplace_back(static_cast<std::uint32_t>((r + 2) % p64),
                        std::vector<std::int64_t>{r * 2});
    auto inbox = c.exchange_typed(outbox);
    for (const auto& [peer, data] : inbox) {
      row.exchanged += static_cast<std::int64_t>(peer) + 1;
      for (std::int64_t v : data) row.exchanged += v * 3;
    }

    // Split into parity subgroups; reduce within each.
    Comm sub = c.split(c.rank() % 2, c.rank());
    row.subgroup = sub.allreduce<std::int64_t>(r + 100, ReduceOp::kMax) +
                   static_cast<std::int64_t>(sub.rank());

    row.broadcast = c.broadcast<std::int64_t>(row.allreduce + r, 0);
    c.barrier();

    auto rows = c.gatherv<BatteryResult::Row>(
        std::span<const BatteryResult::Row>(&row, 1), 0);
    if (c.rank() == 0) out->rows = std::move(rows);
  });
}

class ExecConformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(ExecConformance, RendezvousBatteryMatchesFiberBitForBit) {
  const exec::Backend backend = GetParam().backend;
  const std::uint32_t p = GetParam().nranks;
  BatteryResult ref;
  const RunStats ref_stats = run_battery(exec::Backend::kFiber, p, &ref);
  ASSERT_EQ(ref.rows.size(), p);

  BatteryResult got;
  const RunStats stats = run_battery(backend, p, &got);
  EXPECT_TRUE(got == ref) << "collective results diverged from fiber";
  EXPECT_EQ(stats.fingerprint(), ref_stats.fingerprint());
  EXPECT_EQ(stats.backend, backend);
  ASSERT_EQ(stats.clocks.size(), ref_stats.clocks.size());
  for (std::size_t i = 0; i < stats.clocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(stats.clocks[i], ref_stats.clocks[i]) << "rank " << i;
  }
}

// ---- Crash, poison, shrink ---------------------------------------------

struct CrashResult {
  std::vector<std::uint32_t> failed;     // as rank 0 observed them
  std::vector<std::uint32_t> survivors;  // world ranks after shrink
  std::int64_t observers = 0;            // survivors that saw the poison
  std::int64_t final_sum = 0;
};

// Rank 1 dies entering its fourth allreduce. In the second plan rank 2,
// which observes that death at the same allreduce, dies entering the
// survivors' shrink: the survivors that had already arrived there retry
// under the new failure count, the others join the retry directly.
struct CrashPlan {
  const char* label;
  comm::FaultPlan faults;
  std::vector<std::uint32_t> dead;  // in order of death
};

std::vector<CrashPlan> crash_plans() {
  return {{"crash", comm::FaultPlan{}.kill_at_event(1, 3), {1}},
          {"crash-in-shrink",
           comm::FaultPlan{}.kill_at_event(1, 3).kill_at_event(2, 4),
           {1, 2}}};
}

RunStats run_crash_and_shrink(exec::Backend b, std::uint32_t p,
                              const comm::FaultPlan& faults,
                              CrashResult* out) {
  *out = CrashResult{};
  BspEngine::Options o = opts(b, p);
  o.faults = faults;
  BspEngine engine(o);
  return engine.run([out](Comm& world0) {
    Comm world = world0;
    bool caught = false;
    for (;;) {
      try {
        for (int step = 0; step < 6; ++step) {
          (void)world.allreduce<std::int64_t>(
              static_cast<std::int64_t>(world.rank()) + step, ReduceOp::kSum);
        }
        const std::int64_t sum = world.allreduce<std::int64_t>(
            static_cast<std::int64_t>(world.world_rank()), ReduceOp::kSum);
        const std::int64_t observers =
            world.allreduce<std::int64_t>(caught ? 1 : 0, ReduceOp::kSum);
        auto ids = world.allgather<std::uint32_t>(world.world_rank());
        if (world.rank() == 0) {
          out->survivors = ids;
          out->observers = observers;
          out->final_sum = sum;
        }
        return;
      } catch (const RankFailedError& e) {
        caught = true;
        if (world.world_rank() == 0) out->failed = e.failed_ranks();
        world = world.shrink();
      }
    }
  });
}

TEST_P(ExecConformance, CrashPoisonsSurvivorsAndShrinkRecovers) {
  const exec::Backend backend = GetParam().backend;
  const std::uint32_t p = GetParam().nranks;
  for (const CrashPlan& plan : crash_plans()) {
    SCOPED_TRACE(plan.label);
    CrashResult ref;
    const RunStats ref_stats =
        run_crash_and_shrink(exec::Backend::kFiber, p, plan.faults, &ref);

    CrashResult got;
    const RunStats stats = run_crash_and_shrink(backend, p, plan.faults, &got);

    // Structured failure: every survivor observed a death. Rank 0 names
    // the ranks dead when it observed, so a later death may be missing.
    ASSERT_FALSE(got.failed.empty());
    ASSERT_LE(got.failed.size(), plan.dead.size());
    EXPECT_TRUE(std::equal(got.failed.begin(), got.failed.end(),
                           plan.dead.begin()));
    const auto live = static_cast<std::uint32_t>(p - plan.dead.size());
    EXPECT_EQ(got.observers, static_cast<std::int64_t>(live));
    ASSERT_EQ(got.survivors.size(), live);
    EXPECT_EQ(got.survivors, ref.survivors);
    EXPECT_EQ(got.final_sum, ref.final_sum);
    EXPECT_EQ(stats.failed_ranks, plan.dead);
    EXPECT_EQ(stats.failed_ranks, ref_stats.failed_ranks);
    EXPECT_EQ(stats.fingerprint(), ref_stats.fingerprint());
  }
}

// ---- Deadlock / stall detection ----------------------------------------

TEST_P(ExecConformance, SkippedRendezvousRaisesDeadlockError) {
  const exec::Backend backend = GetParam().backend;
  const std::uint32_t p = GetParam().nranks;
  BspEngine engine(opts(backend, p));
  EXPECT_THROW(engine.run([](Comm& c) {
    if (c.rank() != 0) c.barrier();  // rank 0 bails out
  }),
               DeadlockError);
}

// ---- Exception unwind ---------------------------------------------------

TEST_P(ExecConformance, UserExceptionSurfacesWithMessage) {
  const exec::Backend backend = GetParam().backend;
  const std::uint32_t p = GetParam().nranks;
  // Rank 0 (always in the host process) is parked in the barrier when the
  // run aborts: its frame must unwind, so what it holds is released.
  struct Guard {
    bool* released;
    ~Guard() { *released = true; }
  };
  bool released = false;
  BspEngine engine(opts(backend, p));
  try {
    engine.run([&released](Comm& c) {
      if (c.rank() == 2) throw std::runtime_error("rank 2 burst a seam");
      if (c.rank() == 0) {
        const Guard guard{&released};
        c.barrier();
        return;
      }
      c.barrier();
    });
    FAIL() << "expected the user exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 burst a seam"),
              std::string::npos)
        << "got: " << e.what();
  }
  EXPECT_TRUE(released) << "rank 0 was left parked, its frame not unwound";
}

// ---- Engine event stream -------------------------------------------------
// A subscriber keeping each rank's events as comparable records. A rank's
// rendezvous events are emitted from its own context (the proxy fiber on
// the process backend) under the engine lock, so every lane is in its
// rank's program order on every backend.

struct EventRecord {
  char kind = '?';  // Arrive, Op, Pickup, Killed, Counters
  std::string op;
  std::string stage;
  std::uint64_t group = 0;
  std::uint64_t seq = 0;
  double t_begin = 0.0;
  double t_end = 0.0;
  std::uint64_t messages = 0;  // Counters: coalesced batches
  std::uint64_t bytes = 0;
  bool operator==(const EventRecord&) const = default;
};

std::ostream& operator<<(std::ostream& os, const EventRecord& e) {
  return os << e.kind << ' ' << e.op << " stage=" << e.stage << " group="
            << e.group << " seq=" << e.seq << " t=" << e.t_begin << ".."
            << e.t_end << " msgs=" << e.messages << " bytes=" << e.bytes;
}

class LaneSink : public comm::EventSink {
 public:
  std::vector<std::vector<EventRecord>> lanes;

  void on_run_begin(std::uint32_t nranks) override { lanes.assign(nranks, {}); }
  void on_arrive(std::uint32_t r, std::uint64_t group, std::uint64_t seq,
                 double clock, const char* op,
                 const std::string* stage) override {
    lanes[r].push_back({'A', op, *stage, group, seq, clock, clock, 0, 0});
  }
  void on_comm_op(const comm::CommOpEvent& ev) override {
    lanes[ev.world_rank].push_back({'O', ev.op, *ev.stage, ev.group, ev.seq,
                                    ev.t_begin, ev.t_end, ev.messages,
                                    ev.bytes});
  }
  void on_pickup(std::uint32_t r, std::uint64_t group,
                 std::uint64_t seq) override {
    lanes[r].push_back({'P', "", "", group, seq, 0.0, 0.0, 0, 0});
  }
  void on_rank_killed(std::uint32_t r, double clock,
                      const std::string* stage) override {
    lanes[r].push_back({'K', "", *stage, 0, 0, clock, clock, 0, 0});
  }
  // Arena hits are left out: on the process backend the child ranks pack
  // from their own arenas.
  void on_comm_counters(std::uint32_t r, std::uint64_t coalesced_batches,
                        std::uint64_t, std::uint64_t) override {
    lanes[r].push_back({'C', "", "", 0, 0, 0.0, 0.0, coalesced_batches, 0});
  }
};

/// Subscribes `sink` to the engine's event stream for its scope.
class Subscription {
 public:
  explicit Subscription(comm::EventSink& sink) : sink_(&sink) {
    comm::subscribe(sink_);
  }
  ~Subscription() { comm::unsubscribe(sink_); }
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

 private:
  comm::EventSink* sink_;
};

// Every op kind: allreduce, an exchange with several packets to one peer,
// allgather, barrier, gather, broadcast, a split and an allreduce on the
// sub-communicator.
void stream_program(Comm& c) {
  c.set_stage("stream");
  c.add_compute(10.0 * static_cast<double>(c.rank() + 1));
  (void)c.allreduce<std::int64_t>(c.rank(), ReduceOp::kSum);
  std::vector<std::pair<std::uint32_t, std::vector<std::int64_t>>> out;
  const std::uint32_t peer = (c.rank() + 1) % c.nranks();
  for (std::int64_t k = 0; k < 3; ++k) {
    out.emplace_back(peer, std::vector<std::int64_t>(k + 1, k));
  }
  (void)c.exchange_typed(out);
  c.set_stage("gather");
  (void)c.allgather<std::uint32_t>(c.rank());
  c.set_stage("rooted");
  c.add_compute(5.0 * static_cast<double>(c.nranks() - c.rank()));
  c.barrier();
  const std::vector<std::int64_t> mine(c.rank() % 3 + 1, c.rank());
  (void)c.gatherv<std::int64_t>(std::span<const std::int64_t>(mine), 1);
  (void)c.broadcast<double>(0.5 * static_cast<double>(c.rank()), 2);
  Comm sub = c.split(c.rank() % 2, c.nranks() - c.rank());
  (void)sub.allreduce<std::int64_t>(c.rank(), ReduceOp::kMax);
}

/// The fiber run's lanes and trace fingerprint: a change to any event,
/// clock or charge of any op kind shows here.
struct StreamPin {
  std::uint32_t nranks;
  std::uint64_t lanes_digest;
  std::uint64_t fingerprint;
};
constexpr StreamPin kStreamPins[] = {
    {4, 0xe04fb387f0383f33ull, 0xcd47a86b2c308bedull},
    {16, 0x6ab55b2cfbe5302aull, 0xc76b5ba7f2a4c762ull},
};

/// Hash of every record of every lane, doubles by their bits.
std::uint64_t lanes_digest(const std::vector<std::vector<EventRecord>>& lanes) {
  std::string bytes;
  auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (const auto& lane : lanes) {
    for (const EventRecord& e : lane) {
      bytes += e.kind;
      bytes += e.op + '\0' + e.stage + '\0';
      put(e.group);
      put(e.seq);
      put(e.t_begin);
      put(e.t_end);
      put(e.messages);
      put(e.bytes);
    }
    bytes += '\n';
  }
  return analysis::fingerprint_bytes(bytes.data(), bytes.size());
}

/// Structural check of one lane: every comm op directly follows the
/// arrival of its rendezvous (same group and seq) and is directly
/// followed by its pickup; after a kill only the counters follow.
/// Returns "" when the lane holds.
std::string lane_structure_error(const std::vector<EventRecord>& lane) {
  const EventRecord* arrival = nullptr;
  bool killed = false;
  for (std::size_t i = 0; i < lane.size(); ++i) {
    const EventRecord& e = lane[i];
    const std::string at = "event " + std::to_string(i) + " (" + e.kind + ")";
    if (killed && e.kind != 'C') return at + " after the kill";
    switch (e.kind) {
      case 'A':
        arrival = &e;  // a poisoned rendezvous has no op or pickup
        break;
      case 'O':
        if (arrival == nullptr || arrival->group != e.group ||
            arrival->seq != e.seq) {
          return at + ": comm op without its arrival";
        }
        if (i + 1 == lane.size() || lane[i + 1].kind != 'P' ||
            lane[i + 1].group != e.group || lane[i + 1].seq != e.seq) {
          return at + ": comm op without its pickup";
        }
        arrival = nullptr;
        break;
      case 'P':
        if (i == 0 || lane[i - 1].kind != 'O') {
          return at + ": pickup without its comm op";
        }
        break;
      case 'K':
        killed = true;
        break;
      default:
        break;
    }
  }
  return {};
}

TEST_P(ExecConformance, EventStreamMatchesFiberPerRank) {
  const exec::Backend backend = GetParam().backend;
  const std::uint32_t p = GetParam().nranks;
  LaneSink ref;
  RunStats ref_stats;
  {
    Subscription on(ref);
    ref_stats = BspEngine(opts(exec::Backend::kFiber, p)).run(stream_program);
  }
  ASSERT_EQ(ref.lanes.size(), p);
  for (const StreamPin& pin : kStreamPins) {
    if (pin.nranks != p) continue;
    EXPECT_EQ(lanes_digest(ref.lanes), pin.lanes_digest);
    EXPECT_EQ(ref_stats.fingerprint(), pin.fingerprint);
  }

  // Two subscribers at once: both see the whole stream.
  LaneSink first, second;
  {
    Subscription a(first);
    Subscription b(second);
    BspEngine(opts(backend, p)).run(stream_program);
  }
  EXPECT_EQ(first.lanes, second.lanes);
  ASSERT_EQ(first.lanes.size(), p);
  const std::vector<std::string> ops = {
      "allreduce", "exchange",  "allgather", "barrier",
      "gather",    "broadcast", "allgather", "allreduce"};
  for (std::uint32_t r = 0; r < p; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    // Eight rendezvous (arrive, op, pickup each), then the counters.
    ASSERT_EQ(first.lanes[r].size(), 3 * ops.size() + 1);
    for (std::size_t k = 0; k < ops.size(); ++k) {
      EXPECT_EQ(first.lanes[r][3 * k + 1].op, ops[k]) << "rendezvous " << k;
    }
    EXPECT_EQ(first.lanes[r][4].messages, 1u);  // three packets, one peer
    EXPECT_EQ(first.lanes[r].back().messages, 1u);  // one coalesced batch
    for (std::size_t i = 0; i < ref.lanes[r].size(); ++i) {
      EXPECT_EQ(first.lanes[r][i], ref.lanes[r][i]) << "event " << i;
    }
  }

  // Crash and shrink: which survivors reach the doomed rendezvous before
  // the kill poisons it depends on thread interleaving, so only the
  // structure is compared.
  LaneSink crash;
  {
    Subscription on(crash);
    CrashResult out;
    run_crash_and_shrink(backend, p, crash_plans()[0].faults, &out);
  }
  ASSERT_EQ(crash.lanes.size(), p);
  for (std::uint32_t r = 0; r < p; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(lane_structure_error(crash.lanes[r]), "");
    const auto kills = std::count_if(
        crash.lanes[r].begin(), crash.lanes[r].end(),
        [](const EventRecord& e) { return e.kind == 'K'; });
    EXPECT_EQ(kills, r == 1 ? 1 : 0);
    EXPECT_EQ(crash.lanes[r].back().kind, 'C');
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecConformance,
                         ::testing::ValuesIn(conformance_cases()), case_name);

// ---- Cross-backend bit-identity via the determinism auditor -------------

TEST(ExecConformanceAudit, BackendAuditBitIdenticalAtP4AndP16) {
  for (std::uint32_t p : {4u, 16u}) {
    auto result = std::make_shared<BatteryResult>();
    analysis::ProgramFactory factory = [result]() {
      result->rows.clear();
      return [result](Comm& c) {
        const auto r = static_cast<std::int64_t>(c.rank());
        BatteryResult::Row row;
        row.allreduce = c.allreduce<std::int64_t>(r * 5 + 2, ReduceOp::kSum);
        Comm sub = c.split(c.rank() % 2, c.rank());
        row.subgroup = sub.allreduce<std::int64_t>(r + 1, ReduceOp::kSum);
        auto rows = c.gatherv<BatteryResult::Row>(
            std::span<const BatteryResult::Row>(&row, 1), 0);
        if (c.rank() == 0) result->rows = std::move(rows);
      };
    };
    BspEngine::Options base;
    base.nranks = p;
    base.threads = 4;
    auto report = analysis::audit_backends(
        base, factory, [result]() -> std::uint64_t {
          return analysis::fingerprint_bytes(
              result->rows.data(),
              result->rows.size() * sizeof(BatteryResult::Row));
        });
    EXPECT_TRUE(report.deterministic) << "P=" << p << ": " << report.str();
    EXPECT_EQ(report.schedules_run,
              analysis::default_backend_points().size());
  }
}

TEST(ExecConformanceAudit, BackendAuditShrinkAndRecoverBitIdentical) {
  // Step s is an allreduce (event 2s) and a ring exchange (event 2s+1).
  // Rank 1 dies entering the exchange of step 1: depending on the
  // schedule, rank 2 joined that exchange before the death or is refused
  // at its entry. Then rank 2 dies entering the survivors' shrink, or
  // rank 2's fault at that same exchange ordinal must not move to a
  // later exchange.
  const std::vector<std::pair<const char*, comm::FaultPlan>> plans = {
      {"crash", comm::FaultPlan{}.kill_at_event(2, 2)},
      {"crash-in-shrink",
       comm::FaultPlan{}.kill_at_event(1, 3).kill_at_event(2, 4)},
      {"drop-at-refused-exchange",
       comm::FaultPlan{}.kill_at_event(1, 3).drop_message(2, 1)},
  };
  for (const auto& [label, faults] : plans) {
    for (std::uint32_t p : {4u, 16u}) {
      SCOPED_TRACE(std::string(label) + " P=" + std::to_string(p));
      auto result = std::make_shared<CrashResult>();
      analysis::ProgramFactory factory = [result]() {
        *result = CrashResult{};
        return [result](Comm& world0) {
          Comm world = world0;
          for (;;) {
            try {
              std::uint64_t digest = 0;
              for (int step = 0; step < 5; ++step) {
                (void)world.allreduce<std::int64_t>(
                    static_cast<std::int64_t>(world.rank()) + step,
                    ReduceOp::kSum);
                std::vector<std::pair<std::uint32_t, std::vector<std::int64_t>>>
                    out;
                out.emplace_back(
                    (world.rank() + 1) % world.nranks(),
                    std::vector<std::int64_t>(
                        static_cast<std::size_t>(step + 1),
                        static_cast<std::int64_t>(world.world_rank()) * 10 +
                            step));
                for (const auto& [peer, data] : world.exchange_typed(out)) {
                  for (std::int64_t v : data) {
                    digest = digest * 31 + static_cast<std::uint64_t>(v) + peer;
                  }
                }
              }
              auto ids = world.allgather<std::uint32_t>(world.world_rank());
              const std::uint64_t total =
                  world.allreduce<std::uint64_t>(digest, ReduceOp::kSum);
              if (world.rank() == 0) {
                result->survivors = ids;
                result->final_sum = static_cast<std::int64_t>(total);
              }
              return;
            } catch (const RankFailedError&) {
              world = world.shrink();
            }
          }
        };
      };
      BspEngine::Options base;
      base.nranks = p;
      base.threads = 4;
      base.faults = faults;
      // The failures a RankFailedError names depend on when it is
      // observed; the trace fingerprint hashes the run's failure set.
      auto report = analysis::audit_backends(
          base, factory, [result]() -> std::uint64_t {
            return analysis::fingerprint_bytes(
                       result->survivors.data(),
                       result->survivors.size() * sizeof(std::uint32_t)) ^
                   static_cast<std::uint64_t>(result->final_sum);
          });
      EXPECT_TRUE(report.deterministic) << report.str();
      EXPECT_EQ(report.schedules_run,
                analysis::default_backend_points().size());
    }
  }
}

}  // namespace
}  // namespace sp
