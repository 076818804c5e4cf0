#include "obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "comm/frame_io.hpp"

namespace sp::obs::flight {

FlightRecorder* FlightRecorder::current_ = nullptr;

FlightRecorder::FlightRecorder(std::uint32_t nranks, std::uint32_t capacity)
    : capacity_(std::max<std::uint32_t>(capacity, 1)),
      epoch_(std::chrono::steady_clock::now()) {
  lanes_.resize(nranks);
  for (Lane& l : lanes_) l.ring.resize(capacity_);
  strings_.emplace_back();  // id 0 = ""
  string_ids_.emplace(std::string(), 0);
}

std::uint64_t FlightRecorder::wall_now_ns_() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint16_t FlightRecorder::intern_(std::string_view s) {
  if (s.empty()) return 0;
  std::lock_guard<std::mutex> lock(strings_mu_);
  auto it = string_ids_.find(std::string(s));
  if (it != string_ids_.end()) return it->second;
  if (strings_.size() >= 0xFFFF) return 0;  // table full: drop detail, not data
  const auto id = static_cast<std::uint16_t>(strings_.size());
  strings_.emplace_back(s);
  string_ids_.emplace(strings_.back(), id);
  return id;
}

void FlightRecorder::append_(std::uint32_t rank, const Record& r) {
  Lane& l = lanes_[rank];
  l.ring[static_cast<std::size_t>(l.total % capacity_)] = r;
  ++l.total;
}

void FlightRecorder::span_begin(std::uint32_t rank, std::string_view name,
                                std::string_view cat, std::int32_t level,
                                double t) {
  const std::uint16_t n = intern_(name);
  const std::uint16_t c = intern_(cat);
  const std::uint64_t w = wall_now_ns_();
  Record r;
  r.kind = Kind::kSpanBegin;
  r.t = t;
  r.wall_ns = w;
  r.name = n;
  r.aux = c;
  r.level = level;
  append_(rank, r);
  lanes_[rank].open.push_back(Open{n, c, level, t, w});
}

void FlightRecorder::span_end(std::uint32_t rank, double t) {
  Lane& l = lanes_[rank];
  if (l.open.empty()) return;  // unmatched end: tolerate, like Recorder
  const Open o = l.open.back();
  l.open.pop_back();
  const std::uint64_t w = wall_now_ns_();
  Record r;
  r.kind = Kind::kSpanEnd;
  r.t = t;
  r.wall_ns = w;
  r.name = o.name;
  r.aux = o.cat;
  r.level = o.level;
  r.a = std::bit_cast<std::uint64_t>(o.t_begin);
  append_(rank, r);
  // The stage-wall profile accumulates at close, so it stays complete
  // after the ring wraps (only the event *stream* is bounded).
  StageAgg& agg = l.stage_wall[{o.cat, o.name, o.level}];
  agg.wall_seconds += static_cast<double>(w - o.wall_begin_ns) * 1e-9;
  agg.modeled_seconds += t - o.t_begin;
  ++agg.count;
}

void FlightRecorder::mark(std::uint32_t rank, std::string_view name,
                          std::string_view cat, double t) {
  Record r;
  r.kind = Kind::kMark;
  r.t = t;
  r.wall_ns = wall_now_ns_();
  r.name = intern_(name);
  r.aux = intern_(cat);
  append_(rank, r);
}

void FlightRecorder::on_comm_op(const comm::CommOpEvent& ev) {
  Record r;
  r.kind = Kind::kCommOp;
  r.t = ev.t_end;
  r.wall_ns = wall_now_ns_();
  r.name = intern_(ev.op);
  r.aux = ev.stage != nullptr ? intern_(*ev.stage) : 0;
  r.a = ev.group;
  r.b = ev.seq;
  r.c = ev.bytes;
  append_(ev.world_rank, r);
}

void FlightRecorder::on_arrive(std::uint32_t world_rank, std::uint64_t group,
                               std::uint64_t seq, double clock, const char* op,
                               const std::string* stage) {
  Record r;
  r.kind = Kind::kArrive;
  r.t = clock;
  r.wall_ns = wall_now_ns_();
  r.name = intern_(op);
  r.aux = stage != nullptr ? intern_(*stage) : 0;
  r.a = group;
  r.b = seq;
  append_(world_rank, r);
}

void FlightRecorder::on_rank_killed(std::uint32_t world_rank, double clock,
                                    const std::string* stage) {
  Record r;
  r.kind = Kind::kKilled;
  r.t = clock;
  r.wall_ns = wall_now_ns_();
  r.aux = stage != nullptr ? intern_(*stage) : 0;
  append_(world_rank, r);
  lanes_[world_rank].killed = true;
}

void FlightRecorder::on_detector(const comm::DetectorEvent& ev, double clock) {
  Record r;
  r.kind = Kind::kDetector;
  r.t = clock;
  r.wall_ns = wall_now_ns_();
  r.a = ev.suspicions;
  r.b = std::bit_cast<std::uint64_t>(ev.lag_seconds);
  r.c = ev.escalated ? 1 : 0;
  append_(ev.suspect, r);
}

void FlightRecorder::set_meta(std::string_view key, std::string_view value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  meta_.emplace_back(std::string(key), std::string(value));
}

std::size_t FlightRecorder::stored(std::uint32_t rank) const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(lanes_[rank].total, capacity_));
}

const Record& FlightRecorder::record(std::uint32_t rank, std::size_t i) const {
  const Lane& l = lanes_[rank];
  if (l.total <= capacity_) return l.ring[i];
  return l.ring[static_cast<std::size_t>((l.total + i) % capacity_)];
}

const std::string& FlightRecorder::string_at(std::uint16_t id) const {
  return strings_[id];
}

std::uint32_t FlightRecorder::num_strings() const {
  return static_cast<std::uint32_t>(strings_.size());
}

// ---------------------------------------------------------------------------
// ScopedFlightRecording
// ---------------------------------------------------------------------------

ScopedFlightRecording::ScopedFlightRecording(FlightRecorder& rec)
    : prev_(FlightRecorder::current_) {
  comm::unsubscribe(prev_);
  comm::subscribe(&rec);
  FlightRecorder::current_ = &rec;
}

ScopedFlightRecording::~ScopedFlightRecording() {
  comm::unsubscribe(FlightRecorder::current_);
  comm::subscribe(prev_);
  FlightRecorder::current_ = prev_;
}

// ---------------------------------------------------------------------------
// Stage-wall profile
// ---------------------------------------------------------------------------

std::vector<StageWallStat> wall_profile(const FlightRecorder& rec) {
  struct KeyAgg {
    std::vector<double> walls;  // one entry per participating rank
    double modeled_max = 0.0;
    std::uint64_t count = 0;
  };
  // Keyed by resolved strings, not intern ids: ids depend on intern
  // order (thread-interleaving-dependent on the threads backend), the
  // strings themselves do not.
  std::map<std::tuple<std::string, std::string, std::int32_t>, KeyAgg> by_key;
  for (std::uint32_t rank = 0; rank < rec.nranks(); ++rank) {
    for (const auto& [ids, agg] : rec.stage_wall(rank)) {
      const auto& [cat_id, name_id, level] = ids;
      KeyAgg& ka =
          by_key[{rec.string_at(cat_id), rec.string_at(name_id), level}];
      ka.walls.push_back(agg.wall_seconds);
      ka.modeled_max = std::max(ka.modeled_max, agg.modeled_seconds);
      ka.count += agg.count;
    }
  }
  std::vector<StageWallStat> out;
  out.reserve(by_key.size());
  for (auto& [key, ka] : by_key) {
    StageWallStat s;
    s.cat = std::get<0>(key);
    s.name = std::get<1>(key);
    s.level = std::get<2>(key);
    s.participants = static_cast<std::uint32_t>(ka.walls.size());
    s.count = ka.count;
    s.modeled_max = ka.modeled_max;
    std::sort(ka.walls.begin(), ka.walls.end());
    s.wall_min = ka.walls.front();
    s.wall_max = ka.walls.back();
    const std::size_t n = ka.walls.size();
    s.wall_median = n % 2 == 1
                        ? ka.walls[n / 2]
                        : 0.5 * (ka.walls[n / 2 - 1] + ka.walls[n / 2]);
    double sum = 0.0;
    for (double w : ka.walls) sum += w;
    s.wall_mean = sum / static_cast<double>(n);
    s.imbalance = s.wall_mean > 0.0 ? s.wall_max / s.wall_mean : 1.0;
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dump writer
// ---------------------------------------------------------------------------

namespace {

void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::vector<std::byte>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::vector<std::byte>& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  for (char c : s) out.push_back(static_cast<std::byte>(c));
}

std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint16_t get_u16(const std::byte* p) {
  return static_cast<std::uint16_t>(
      std::to_integer<std::uint8_t>(p[0]) |
      (std::to_integer<std::uint8_t>(p[1]) << 8));
}

}  // namespace

void pack_record(std::vector<std::byte>& out, const Record& r) {
  put_f64(out, r.t);
  put_u64(out, r.wall_ns);
  put_u64(out, r.a);
  put_u64(out, r.b);
  put_u64(out, r.c);
  put_u32(out, static_cast<std::uint32_t>(r.level));
  put_u16(out, static_cast<std::uint16_t>(r.kind));
  put_u16(out, r.name);
  put_u16(out, r.aux);
}

Record unpack_record(const std::byte* p) {
  Record r;
  r.t = std::bit_cast<double>(get_u64(p));
  r.wall_ns = get_u64(p + 8);
  r.a = get_u64(p + 16);
  r.b = get_u64(p + 24);
  r.c = get_u64(p + 32);
  r.level = static_cast<std::int32_t>(get_u32(p + 40));
  r.kind = static_cast<Kind>(get_u16(p + 44));
  r.name = get_u16(p + 46);
  r.aux = get_u16(p + 48);
  return r;
}

void dump(const FlightRecorder& rec, const std::string& path,
          const std::string& reason) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw comm::FrameError("flight dump: cannot open " + tmp);
    comm::write_frame_header(out, kDumpFlags);

    // Frame 0: run metadata. Pure length-prefixed binary (not JSON) so
    // the reader needs no parser.
    std::vector<std::byte> m;
    put_u32(m, 1);  // dump format version
    put_u32(m, rec.nranks());
    put_u32(m, rec.capacity());
    put_str(m, reason);
    put_u32(m, static_cast<std::uint32_t>(rec.meta().size()));
    for (const auto& [k, v] : rec.meta()) {
      put_str(m, k);
      put_str(m, v);
    }
    comm::write_frame(out, m);

    // Frame 1: the string table, in id order.
    std::vector<std::byte> st;
    put_u32(st, rec.num_strings());
    for (std::uint32_t id = 0; id < rec.num_strings(); ++id) {
      put_str(st, rec.string_at(static_cast<std::uint16_t>(id)));
    }
    comm::write_frame(out, st);

    // Frames 2..2+nranks: one lane per rank, records oldest-first.
    for (std::uint32_t rank = 0; rank < rec.nranks(); ++rank) {
      std::vector<std::byte> lane;
      const auto n = static_cast<std::uint32_t>(rec.stored(rank));
      lane.reserve(16 + static_cast<std::size_t>(n) * kRecordBytes);
      put_u32(lane, rank);
      put_u64(lane, rec.total_appends(rank));
      put_u32(lane, n);
      for (std::uint32_t i = 0; i < n; ++i) {
        pack_record(lane, rec.record(rank, i));
      }
      comm::write_frame(out, lane);
    }
    out.flush();
    if (!out) throw comm::FrameError("flight dump: write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw comm::FrameError("flight dump: rename failed: " + path);
  }
}

std::string dump_abnormal(FlightRecorder& rec, const std::string& dir,
                          const std::string& reason) {
  if (rec.dumped()) return std::string();
  std::string d = dir;
  if (d.empty()) {
    const char* env = std::getenv("SP_FLIGHT_DIR");
    if (env != nullptr && env[0] != '\0') d = env;
  }
  if (d.empty()) return std::string();
  // Unique without wall clocks or randomness: pid (parallel test
  // processes share SP_FLIGHT_DIR) plus a process-global counter.
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const std::string path = d + "/flight-" + std::to_string(::getpid()) + "-" +
                           std::to_string(n) + ".spfr";
  try {
    std::error_code ec;
    std::filesystem::create_directories(d, ec);
    dump(rec, path, reason);
  } catch (...) {
    // Best effort: the dump must never mask the original failure.
    return std::string();
  }
  rec.mark_dumped(path);
  std::fprintf(stderr, "[sp::obs::flight] postmortem dump written: %s (%s)\n",
               path.c_str(), reason.c_str());
  return path;
}

}  // namespace sp::obs::flight
