// Event records collected by obs::Recorder.
//
// Each rank's events form one *lane*: an append-only, program-ordered
// stream in which Begin/End records are properly nested (they are emitted
// by RAII Span construct/destruct, and C++ scope exit is LIFO — even
// during stack unwinding, so a rank killed by the fault plan still closes
// its spans) and timestamps are non-decreasing (they read the rank's
// virtual clock, which only moves forward). The exporters lean on both
// properties; validate_lanes() (export.hpp) checks them.
#pragma once

#include <cstdint>
#include <string>

#include "comm/events.hpp"

namespace sp::obs {

enum class EventKind : std::uint8_t {
  kBegin,     // span opened
  kEnd,       // span closed (name/cat/level copied from its begin)
  kComplete,  // one engine comm op, [t, t + dur]
  kInstant,   // point event
};

struct Event {
  EventKind kind = EventKind::kInstant;
  std::string name;
  std::string cat;  // "pipeline", "stage", "level", "comm", ...
  /// Multilevel level tag (-1 = not level-scoped).
  std::int32_t level = -1;
  /// BSP superstep: the collective sequence number (kComplete only, -1
  /// otherwise).
  std::int64_t superstep = -1;
  double t = 0.0;    // modeled seconds (begin time for kComplete)
  double dur = 0.0;  // kComplete: op duration; kEnd: full span duration
  /// Modeled cost attributed to the event: for kEnd the deltas of the
  /// rank's CostSnapshot over the span; for kComplete this op's charge.
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

}  // namespace sp::obs
