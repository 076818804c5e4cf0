// The BSP engine's event stream (DESIGN.md §6).
//
// Observers of a run — obs::Recorder (span traces and metrics),
// obs::flight::FlightRecorder (the postmortem black box) and
// analysis::RaceAuditor (the happens-before race audit) — see the engine
// through one interface, EventSink, and one process-global subscriber
// list, so sp_comm depends on none of them. The engine emits each event
// once and hands it to every subscriber in subscription order. Every hook
// has a no-op default: a subscriber overrides only what it needs.
//
// Per rank and rendezvous (collective, exchange superstep or shrink) the
// stream carries on_arrive when the rank contributes, then on_comm_op and
// on_pickup when it leaves with the result. The arrival is emitted before
// the rendezvous completes, so a rank that dies or hangs inside it still
// leaves the record a postmortem needs; the pickup is where the rank
// acquires every member's arrival (the happens-before edge). Around them:
// on_run_begin before any rank runs, on_detector for each failure-detector
// decision, on_rank_killed when the fault plan or the detector kills a
// rank (that rank's last event but the counters), and on_comm_counters for
// every rank after the run. on_access comes from the analysis/shared.hpp
// annotations, not from the engine.
//
// Threading: subscribe before a run and unsubscribe after it, never during
// one, so the list itself needs no lock. on_run_begin and on_comm_counters
// come from the host thread; the rendezvous, detector and kill events come
// under the engine lock, which serializes them on every backend; on_access
// comes from rank bodies with no lock held, so a sink that handles it
// synchronizes internally.
//
// The engine's emission sites carry no build flag. obs::ScopedRecording
// and obs::flight::ScopedFlightRecording always subscribe; SP_ANALYSIS
// gates analysis::ScopedRaceAudit (and the shared.hpp annotations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/signature.hpp"  // CallSite (header-only, std-only)

namespace sp::comm {

/// Cumulative modeled cost of one rank since the start of its run,
/// readable mid-run via Comm::cost_snapshot(). obs::Span diffs two of
/// these to attribute comm/compute to the span. Aggregates across all
/// stages (unlike StageCost, which buckets by stage).
struct CostSnapshot {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t collectives = 0;
};

/// One completed communication operation, as the engine saw it. `t_begin`
/// is the rank's clock when it entered the call (so t_end - t_begin
/// includes time spent waiting for the slowest group member — the BSP
/// synchronization cost a per-op trace is for).
struct CommOpEvent {
  std::uint32_t world_rank = 0;
  const char* op = "";                 // "allreduce", "exchange", "shrink", ...
  const std::string* stage = nullptr;  // rank's pipeline stage at the call
  std::uint64_t group = 0;             // communicator group id
  std::uint64_t seq = 0;               // collective sequence number (superstep)
  double t_begin = 0.0;
  double t_end = 0.0;
  std::uint64_t messages = 0;          // messages this rank sent
  std::uint64_t bytes = 0;             // payload bytes this rank sent
  bool is_collective = false;          // false for exchange supersteps
};

/// One failure-detector decision: a suspicion drawn against `suspect`
/// (with its arrival lag), either absorbed as a retry or escalated to a
/// declared failure.
struct DetectorEvent {
  std::uint32_t suspect = 0;     // world rank under suspicion
  std::uint32_t suspicions = 0;  // cumulative count against this rank
  double lag_seconds = 0.0;      // arrival lag behind the earliest member
  bool escalated = false;        // true: declared failed (will be killed)
};

/// One annotated shared-memory access, as analysis::SharedSpan (or the
/// shared_store/shared_load annotations) saw it. `label` names the
/// shared structure ("embed/owner.L2"); `stage` is the rank's pipeline
/// stage at the access, so race reports can mirror SpmdDivergenceError
/// diagnostics (both stages, both call sites).
struct RaceAccess {
  std::uint32_t world_rank = 0;
  std::uintptr_t addr = 0;
  std::size_t size = 0;
  bool is_write = false;
  const char* label = "";
  const std::string* stage = nullptr;
  analysis::CallSite site;
};

class EventSink {
 public:
  virtual ~EventSink() = default;

  /// A run is starting with `nranks` fresh ranks.
  virtual void on_run_begin(std::uint32_t /*nranks*/) {}

  /// `world_rank` arrived at rendezvous (`group`, `seq`) of operation `op`
  /// at modeled time `clock`, while in pipeline stage `stage`.
  virtual void on_arrive(std::uint32_t /*world_rank*/,
                         std::uint64_t /*group*/, std::uint64_t /*seq*/,
                         double /*clock*/, const char* /*op*/,
                         const std::string* /*stage*/) {}

  /// A rank completed a communication operation.
  virtual void on_comm_op(const CommOpEvent& /*ev*/) {}

  /// `world_rank` picked up the completed rendezvous (`group`, `seq`),
  /// after every member arrived.
  virtual void on_pickup(std::uint32_t /*world_rank*/,
                         std::uint64_t /*group*/, std::uint64_t /*seq*/) {}

  /// A failure-detector decision, with the suspect's modeled clock.
  virtual void on_detector(const DetectorEvent& /*ev*/, double /*clock*/) {}

  /// `world_rank` was killed at modeled time `clock` in stage `stage`.
  virtual void on_rank_killed(std::uint32_t /*world_rank*/, double /*clock*/,
                              const std::string* /*stage*/) {}

  /// End-of-run mailbox/allocator counters of one rank: the packed
  /// messages exchange coalescing formed plus its arena stats. Kept out
  /// of CommOpEvent so the per-op trace does not depend on them.
  virtual void on_comm_counters(std::uint32_t /*world_rank*/,
                                std::uint64_t /*coalesced_batches*/,
                                std::uint64_t /*arena_acquires*/,
                                std::uint64_t /*arena_hits*/) {}

  /// An annotated access to rank-shared memory.
  virtual void on_access(const RaceAccess& /*access*/) {}
};

/// Appends `sink` to the subscriber list (nullptr: no-op).
void subscribe(EventSink* sink);

/// Removes `sink` from the subscriber list (nullptr or absent: no-op).
void unsubscribe(EventSink* sink);

/// The subscribers, in subscription order. Defined in engine.cpp.
const std::vector<EventSink*>& subscribers();

}  // namespace sp::comm
