// Flight recorder: an always-on, per-rank, fixed-capacity ring buffer of
// compact binary event records, dumped on abnormal exits for postmortem
// diagnosis (DESIGN.md §9).
//
// Unlike obs::Recorder — a full, unbounded trace you opt into per scope —
// the flight recorder is cheap enough to leave on for every run: each
// event is one fixed-size Record appended to its rank's ring (old events
// are overwritten), and the only shared state is the string-intern table
// behind its own mutex. Appends are single-writer per lane: span/mark
// records come from the rank's own fiber/thread, and every engine-event
// record (comm op, arrival, kill, detector suspicion) is emitted under
// the engine lock from a context ordered with the subject rank's own
// appends — so there is no racing write to any lane on either backend
// (the PR-7 race auditor and TSan both see only lock/park-ordered
// accesses).
//
// On top of the same event stream the recorder keeps incremental
// per-rank wall-time aggregates per (span name, category, level) — the
// wall-clock stage profiler. Aggregation happens at span close, so the
// profile is complete even after the ring has wrapped.
//
// The record stream never touches modeled clocks, partitions, or
// fingerprints: it only *reads* rank state, so results are bit-identical
// with the recorder on or off.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "comm/events.hpp"

namespace sp::obs::flight {

/// What one flight Record describes. Values are part of the dump format:
/// append only, never renumber.
enum class Kind : std::uint16_t {
  kSpanBegin = 1,  // obs::Span opened         (name, aux=cat, level)
  kSpanEnd = 2,    // obs::Span closed         (name, aux=cat, level, a=t_begin)
  kMark = 3,       // obs::mark point event    (name, aux=cat)
  kCommOp = 4,     // completed comm op        (name=op, aux=stage, a=group,
                   //                           b=seq, c=bytes)
  kArrive = 5,     // rendezvous arrival       (name=op, aux=stage, a=group,
                   //                           b=seq)
  kKilled = 6,     // rank killed              (aux=stage at death)
  kDetector = 7,   // detector suspicion       (a=suspicions, b=lag, c=escalated)
};

/// One fixed-size flight event. `t` is the rank's modeled clock;
/// `wall_ns` is host steady-clock nanoseconds since the recorder's
/// construction (nondeterministic — diagnostic only, never part of any
/// fingerprint). `name`/`aux` are ids into the recorder's string table;
/// `a`/`b`/`c` are per-Kind payload words (doubles stored bit-cast).
struct Record {
  double t = 0.0;
  std::uint64_t wall_ns = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::int32_t level = -1;
  Kind kind = Kind::kMark;
  std::uint16_t name = 0;
  std::uint16_t aux = 0;
};

/// Serialized size of one Record in a dump frame (packed little-endian,
/// field order as declared).
inline constexpr std::size_t kRecordBytes = 50;

/// Dump-file header flags word distinguishing flight dumps from other
/// SPFRAME files (checkpoints use 0).
inline constexpr std::uint32_t kDumpFlags = 1;

/// Per-rank wall/modeled aggregate for one (name, cat, level) span key,
/// accumulated incrementally at span close.
struct StageAgg {
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  std::uint64_t count = 0;
};

/// Cross-rank wall-time summary of one span key: the stage profiler's
/// output row. `imbalance` is wall max/mean across participating ranks
/// (1.0 = perfectly balanced), the wall-clock analogue of
/// report.hpp's modeled StageSummary::imbalance.
struct StageWallStat {
  std::string name;
  std::string cat;
  std::int32_t level = -1;
  std::uint32_t participants = 0;
  std::uint64_t count = 0;  // span instances summed over ranks
  double wall_min = 0.0;
  double wall_median = 0.0;
  double wall_max = 0.0;
  double wall_mean = 0.0;
  double imbalance = 1.0;
  double modeled_max = 0.0;  // max per-rank modeled seconds for the key
};

class FlightRecorder : public comm::EventSink {
 public:
  static constexpr std::uint32_t kDefaultCapacity = 256;

  explicit FlightRecorder(std::uint32_t nranks,
                          std::uint32_t capacity = kDefaultCapacity);

  /// The recorder installed by the innermost live ScopedFlightRecording
  /// (nullptr = no flight recording).
  static FlightRecorder* current() { return current_; }

  // ---- Span interface (called by obs::Span alongside Recorder) ----

  void span_begin(std::uint32_t rank, std::string_view name,
                  std::string_view cat, std::int32_t level, double t);
  void span_end(std::uint32_t rank, double t);
  void mark(std::uint32_t rank, std::string_view name, std::string_view cat,
            double t);

  // ---- Engine events (comm/events.hpp) ----

  void on_comm_op(const comm::CommOpEvent& ev) override;
  void on_arrive(std::uint32_t world_rank, std::uint64_t group,
                 std::uint64_t seq, double clock, const char* op,
                 const std::string* stage) override;
  void on_rank_killed(std::uint32_t world_rank, double clock,
                      const std::string* stage) override;
  void on_detector(const comm::DetectorEvent& ev, double clock) override;

  // ---- Run metadata (serialized into every dump) ----

  void set_meta(std::string_view key, std::string_view value);
  const std::vector<std::pair<std::string, std::string>>& meta() const {
    return meta_;
  }

  // ---- Introspection (dump writer, profiler, tests) ----

  std::uint32_t nranks() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  std::uint32_t capacity() const { return capacity_; }
  /// Lifetime appends to `rank`'s lane (>= stored(rank): the ring keeps
  /// only the newest `capacity()` of them).
  std::uint64_t total_appends(std::uint32_t rank) const {
    return lanes_[rank].total;
  }
  std::size_t stored(std::uint32_t rank) const;
  /// The i-th oldest stored record of `rank`'s lane.
  const Record& record(std::uint32_t rank, std::size_t i) const;
  /// Resolves an interned string id (0 = empty string).
  const std::string& string_at(std::uint16_t id) const;
  std::uint32_t num_strings() const;
  bool killed(std::uint32_t rank) const { return lanes_[rank].killed; }
  const std::map<std::tuple<std::uint16_t, std::uint16_t, std::int32_t>,
                 StageAgg>&
  stage_wall(std::uint32_t rank) const {
    return lanes_[rank].stage_wall;
  }

  /// One dump per abnormal exit: the first trigger wins, nested handlers
  /// (e.g. the chaos harness around scalapart_run) skip re-dumping.
  bool dumped() const { return dumped_; }
  void mark_dumped(std::string path) {
    dumped_ = true;
    dump_path_ = std::move(path);
  }
  /// Where the abnormal-exit dump landed ("" when none was written) —
  /// lets an outer harness report the artifact an inner layer produced.
  const std::string& dump_path() const { return dump_path_; }

 private:
  struct Open {
    std::uint16_t name = 0;
    std::uint16_t cat = 0;
    std::int32_t level = -1;
    double t_begin = 0.0;
    std::uint64_t wall_begin_ns = 0;
  };

  struct Lane {
    std::vector<Record> ring;  // pre-sized to capacity_
    std::uint64_t total = 0;
    std::vector<Open> open;  // span stack (single-writer: the rank itself)
    std::map<std::tuple<std::uint16_t, std::uint16_t, std::int32_t>, StageAgg>
        stage_wall;
    bool killed = false;
  };

  void append_(std::uint32_t rank, const Record& r);
  std::uint16_t intern_(std::string_view s);
  std::uint64_t wall_now_ns_() const;

  static FlightRecorder* current_;
  friend class ScopedFlightRecording;

  std::uint32_t capacity_;
  std::vector<Lane> lanes_;
  /// String table. Appends are mutex-protected (ranks intern
  /// concurrently on the threads backend); reads by id are index lookups
  /// into a vector that only grows, done after the run or under the same
  /// ordering that produced the id.
  mutable std::mutex strings_mu_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint16_t> string_ids_;
  std::vector<std::pair<std::string, std::string>> meta_;
  /// Wall epoch: Record::wall_ns counts from here.
  std::chrono::steady_clock::time_point epoch_;
  bool dumped_ = false;
  std::string dump_path_;
};

/// RAII installer: `rec` becomes FlightRecorder::current() and takes the
/// previous recorder's place among the engine's subscribers for this
/// scope; both are restored on exit (nesting works).
class ScopedFlightRecording {
 public:
  explicit ScopedFlightRecording(FlightRecorder& rec);
  ~ScopedFlightRecording();
  ScopedFlightRecording(const ScopedFlightRecording&) = delete;
  ScopedFlightRecording& operator=(const ScopedFlightRecording&) = delete;

 private:
  FlightRecorder* prev_;
};

/// Packs one Record (kRecordBytes, little-endian, field order as
/// declared) / unpacks it back. Shared by the dump writer and
/// obs::postmortem's reader so the two cannot drift.
void pack_record(std::vector<std::byte>& out, const Record& r);
Record unpack_record(const std::byte* p);

/// Cross-rank wall-time profile over every span key the recorder saw,
/// sorted by (cat, name, level) — the deterministic order reports and
/// bench JSON use. Keys nobody closed a span for are absent.
std::vector<StageWallStat> wall_profile(const FlightRecorder& rec);

/// Writes a complete postmortem dump to `path` (tmp + rename, SPFRAME
/// framing): metadata frame, string-table frame, one frame per lane.
void dump(const FlightRecorder& rec, const std::string& path,
          const std::string& reason);

/// Abnormal-exit dump: resolves the target directory (`dir`, or the
/// SP_FLIGHT_DIR environment variable when `dir` is empty; no-op when
/// both are empty), writes a uniquely named dump, marks the recorder
/// dumped, and prints the path to stderr. Returns the path ("" when not
/// written). Never throws — a failing dump must not mask the original
/// error.
std::string dump_abnormal(FlightRecorder& rec, const std::string& dir,
                          const std::string& reason);

}  // namespace sp::obs::flight
