// obs::Span — RAII span tracing on the modeled clock — and the one-line
// metric helpers. Every site is a null check while no recorder is
// installed, and observation never charges the virtual clock, so
// partitions are byte-identical with a recorder installed or not.
//
// Usage (comm is any Comm-like object: world or a split sub-communicator):
//
//   obs::Span stage(world, obs::stages::kCoarsen, "stage");
//   for (level ...) {
//     obs::Span s(world, "level", "level", static_cast<int>(level));
//     ...
//   }                                  // nests: pipeline > stage > level
//
//   obs::count(sub, "embed/ghost_bytes", bytes);   // per-rank counter
//   obs::observe("refine/fm_gain", gain);          // host-lane histogram
//
// Spans attach the rank's comm/compute deltas (via Comm::cost_snapshot)
// to their end event. Nesting correctness is structural: spans are scoped
// objects, and scope exit is LIFO even when a fiber unwinds on
// RankFailedError/fault-plan death — a killed rank's lane still closes
// every span it opened.
#pragma once

#include <concepts>
#include <cstdint>
#include <string_view>

#include "obs/flight.hpp"
#include "obs/recorder.hpp"
#include "obs/stage_names.hpp"

namespace sp::obs {

/// Anything spans can be tagged from: a Comm or a Comm-like test double.
template <typename T>
concept Observable = requires(const T& c) {
  { c.world_rank() } -> std::convertible_to<std::uint32_t>;
  { c.clock() } -> std::convertible_to<double>;
};

/// True when a Recorder is installed — use to gate instrumentation whose
/// *inputs* cost something to compute (e.g. building a per-level metric
/// name or scanning an array to count matches).
inline bool active() { return Recorder::current() != nullptr; }

template <Observable CommT>
class Span {
 public:
  Span(CommT& comm, std::string_view name, std::string_view cat = "span",
       std::int32_t level = -1)
      : rec_(Recorder::current()),
        frec_(flight::FlightRecorder::current()),
        comm_(&comm) {
    if (rec_ != nullptr) {
      rec_->span_begin(comm.world_rank(), name, cat, level, comm.clock(),
                       comm.cost_snapshot());
    }
    if (frec_ != nullptr) {
      frec_->span_begin(comm.world_rank(), name, cat, level, comm.clock());
    }
  }
  ~Span() {
    if (rec_ != nullptr) {
      rec_->span_end(comm_->world_rank(), comm_->clock(),
                     comm_->cost_snapshot());
    }
    if (frec_ != nullptr) {
      frec_->span_end(comm_->world_rank(), comm_->clock());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder* rec_;
  flight::FlightRecorder* frec_;
  CommT* comm_;
};

/// Point event in the rank's lane (e.g. "recovery started").
template <Observable CommT>
inline void mark(CommT& comm, std::string_view name,
                 std::string_view cat = "mark") {
  if (Recorder* r = Recorder::current()) {
    r->instant(comm.world_rank(), name, cat, comm.clock());
  }
  if (flight::FlightRecorder* fr = flight::FlightRecorder::current()) {
    fr->mark(comm.world_rank(), name, cat, comm.clock());
  }
}

template <Observable CommT>
inline void count(CommT& comm, std::string_view name, double v = 1.0) {
  if (Recorder* r = Recorder::current()) {
    r->metrics().add(name, comm.world_rank(), v);
  }
}

inline void count(std::string_view name, double v = 1.0) {
  if (Recorder* r = Recorder::current()) {
    r->metrics().add(name, MetricsRegistry::kHostLane, v);
  }
}

template <Observable CommT>
inline void gauge(CommT& comm, std::string_view name, double v) {
  if (Recorder* r = Recorder::current()) {
    r->metrics().set_gauge(name, comm.world_rank(), v);
  }
}

inline void gauge(std::string_view name, double v) {
  if (Recorder* r = Recorder::current()) {
    r->metrics().set_gauge(name, MetricsRegistry::kHostLane, v);
  }
}

template <Observable CommT>
inline void observe(CommT& comm, std::string_view name, double v) {
  if (Recorder* r = Recorder::current()) {
    r->metrics().observe(name, comm.world_rank(), v);
  }
}

inline void observe(std::string_view name, double v) {
  if (Recorder* r = Recorder::current()) {
    r->metrics().observe(name, MetricsRegistry::kHostLane, v);
  }
}

}  // namespace sp::obs
