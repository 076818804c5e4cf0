#include "obs/recorder.hpp"

#include <string>

namespace sp::obs {

Recorder* Recorder::current_ = nullptr;

void Recorder::ensure_lane_(std::uint32_t rank) {
  if (rank >= lanes_.size()) {
    lanes_.resize(rank + 1);
    open_.resize(rank + 1);
  }
}

void Recorder::span_begin(std::uint32_t rank, std::string_view name,
                          std::string_view cat, std::int32_t level, double t,
                          const comm::CostSnapshot& at) {
  std::lock_guard<std::mutex> hold(mu_);
  ensure_lane_(rank);
  Event ev;
  ev.kind = EventKind::kBegin;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.level = level;
  ev.t = t;
  open_[rank].push_back({at, static_cast<std::uint32_t>(lanes_[rank].size())});
  lanes_[rank].push_back(std::move(ev));
}

void Recorder::span_end(std::uint32_t rank, double t,
                        const comm::CostSnapshot& at) {
  std::lock_guard<std::mutex> hold(mu_);
  if (rank >= open_.size() || open_[rank].empty()) return;
  const OpenSpan open = open_[rank].back();
  open_[rank].pop_back();
  const Event& begin = lanes_[rank][open.begin_index];
  Event ev;
  ev.kind = EventKind::kEnd;
  ev.name = begin.name;
  ev.cat = begin.cat;
  ev.level = begin.level;
  ev.t = t;
  ev.dur = t - begin.t;
  ev.compute_seconds = at.compute_seconds - open.at.compute_seconds;
  ev.comm_seconds = at.comm_seconds - open.at.comm_seconds;
  ev.messages = at.messages - open.at.messages;
  ev.bytes = at.bytes_sent - open.at.bytes_sent;
  lanes_[rank].push_back(std::move(ev));
}

void Recorder::instant(std::uint32_t rank, std::string_view name,
                       std::string_view cat, double t) {
  std::lock_guard<std::mutex> hold(mu_);
  ensure_lane_(rank);
  Event ev;
  ev.kind = EventKind::kInstant;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.t = t;
  lanes_[rank].push_back(std::move(ev));
}

void Recorder::on_comm_op(const comm::CommOpEvent& op) {
  std::lock_guard<std::mutex> hold(mu_);
  ensure_lane_(op.world_rank);
  Event ev;
  ev.kind = EventKind::kComplete;
  ev.name = op.op;
  ev.cat = "comm";
  ev.superstep = static_cast<std::int64_t>(op.seq);
  ev.t = op.t_begin;
  ev.dur = op.t_end - op.t_begin;
  ev.messages = op.messages;
  ev.bytes = op.bytes;
  lanes_[op.world_rank].push_back(std::move(ev));

  metrics_.add("comm/messages", op.world_rank,
               static_cast<double>(op.messages));
  metrics_.add("comm/bytes", op.world_rank, static_cast<double>(op.bytes));
  metrics_.add(std::string("comm/ops.") + op.op, op.world_rank, 1.0);
}

void Recorder::on_comm_counters(std::uint32_t world_rank,
                                std::uint64_t coalesced_batches,
                                std::uint64_t arena_acquires,
                                std::uint64_t arena_hits) {
  std::lock_guard<std::mutex> hold(mu_);
  metrics_.add("comm/coalesced_batches", world_rank,
               static_cast<double>(coalesced_batches));
  metrics_.add("comm/arena_acquires", world_rank,
               static_cast<double>(arena_acquires));
  metrics_.add("comm/arena_hits", world_rank,
               static_cast<double>(arena_hits));
}

void Recorder::on_detector(const comm::DetectorEvent& ev, double /*clock*/) {
  std::lock_guard<std::mutex> hold(mu_);
  metrics_.add("fault/detector_suspicions", ev.suspect, 1.0);
  metrics_.add(ev.escalated ? "fault/detector_escalations"
                            : "fault/detector_retries",
               ev.suspect, 1.0);
}

std::size_t Recorder::open_spans() const {
  std::size_t n = 0;
  for (const auto& stack : open_) n += stack.size();
  return n;
}

void Recorder::clear() {
  std::lock_guard<std::mutex> hold(mu_);
  lanes_.clear();
  open_.clear();
  metrics_.clear();
}

ScopedRecording::ScopedRecording(Recorder& rec) : prev_(Recorder::current_) {
  comm::unsubscribe(prev_);
  comm::subscribe(&rec);
  Recorder::current_ = &rec;
}

ScopedRecording::~ScopedRecording() {
  comm::unsubscribe(Recorder::current_);
  comm::subscribe(prev_);
  Recorder::current_ = prev_;
}

}  // namespace sp::obs
