// Per-rank accounting of modeled time, split by pipeline stage.
//
// Figures 7-8 of the paper break ScalaPart's time into coarsening /
// embedding / partitioning and, within embedding, communication vs
// computation. Ranks tag their current stage and every charge lands in the
// matching StageCost bucket.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/executor.hpp"

namespace sp::comm {

/// Fiber resume order used by the BSP scheduler (now owned by the
/// execution subsystem; aliased here so existing code keeps writing
/// comm::Schedule). Any schedule yields the same results for a correct
/// SPMD program (collectives canonicalize by group rank); the determinism
/// auditor (sp::analysis) runs a program under several schedules and
/// flags any divergence, which indicates a shared-state ordering bug.
using Schedule = exec::Schedule;

const char* schedule_name(Schedule s);

struct StageCost {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  std::uint64_t messages = 0;       // point-to-point messages sent
  std::uint64_t bytes_sent = 0;     // point-to-point payload
  std::uint64_t collectives = 0;    // collective operations joined
  /// Communication events entered (collective + exchange calls). This is
  /// the counter FaultPlan crash triggers index into, so it lets a test
  /// aim a crash at a precise point within a stage.
  std::uint64_t comm_events = 0;

  double total() const { return compute_seconds + comm_seconds; }

  StageCost& operator+=(const StageCost& o) {
    compute_seconds += o.compute_seconds;
    comm_seconds += o.comm_seconds;
    messages += o.messages;
    bytes_sent += o.bytes_sent;
    collectives += o.collectives;
    comm_events += o.comm_events;
    return *this;
  }
};

/// One rank's trace: stage -> accumulated cost.
using RankTrace = std::map<std::string, StageCost>;

/// Run-wide mailbox/allocator counters, summed over ranks (DESIGN.md §3a).
/// Diagnostic like wall_seconds: excluded from RunStats::fingerprint(),
/// since arena hits depend on what earlier runs of the same engine left
/// pooled, not on the program.
struct CommRunCounters {
  /// Packed multi-packet messages formed by exchange coalescing (0 when
  /// no call site sent >1 packet to one peer).
  std::uint64_t coalesced_batches = 0;
  std::uint64_t arena_acquires = 0;  // buffer requests served by the arenas
  std::uint64_t arena_hits = 0;      // ... served without allocating
  std::uint64_t arena_released = 0;  // buffers returned for reuse

  double arena_hit_rate() const {
    return arena_acquires == 0 ? 0.0
                               : static_cast<double>(arena_hits) /
                                     static_cast<double>(arena_acquires);
  }
};

/// Failure-detector accounting for one run (all zeros when the detector
/// is disabled — the default). Deterministic (arrival clocks are), but
/// excluded from RunStats::fingerprint() so fingerprints of existing
/// detector-free baselines are unchanged.
struct DetectorStats {
  /// Arrival-lag suspicions drawn across all rendezvous.
  std::uint64_t suspicions = 0;
  /// Suspicions absorbed as retries (modeled backoff, no escalation).
  std::uint64_t retries = 0;
  /// Suspects declared failed after exhausting the retry budget.
  std::uint64_t escalations = 0;
  /// Modeled backoff wait charged, summed over ranks.
  double wait_seconds = 0.0;
};

/// Result of a BspEngine::run.
struct RunStats {
  /// Final virtual clock per rank; modeled parallel makespan is max().
  std::vector<double> clocks;
  std::vector<RankTrace> traces;
  double wall_seconds = 0.0;  // actual host time (diagnostic only)
  /// World ranks killed by the FaultPlan, in order of death. Empty on a
  /// fault-free run. A listed rank's clock/trace stop at its death.
  /// Under the threads backend the *order* of multiple same-run deaths
  /// may vary with thread interleaving (each crash fires at its own
  /// deterministic point; only their relative observation order races),
  /// which is why fingerprint() hashes the sorted set.
  std::vector<std::uint32_t> failed_ranks;
  /// Fiber resume order the run used (see Schedule).
  Schedule schedule = Schedule::kRoundRobin;
  /// Execution backend that produced the run, and the worker-thread cap
  /// it ran under (1 for the fiber backend). Diagnostic, like
  /// wall_seconds: excluded from fingerprint().
  exec::Backend backend = exec::Backend::kFiber;
  std::uint32_t threads = 1;
  /// Mailbox coalescing / buffer-arena totals for the run (diagnostic,
  /// excluded from fingerprint()).
  CommRunCounters comm_counters;
  /// Failure-detector totals (zeros when the detector is off; excluded
  /// from fingerprint() — see DetectorStats).
  DetectorStats detector;
  /// Measured wall seconds each rank spent parked in rendezvous waits
  /// (threads backend only; all zeros under kFiber, where parking is
  /// cooperative scheduling, not waiting). Diagnostic like wall_seconds:
  /// excluded from fingerprint(). Holding this against the modeled comm
  /// times is the end-to-end check the wall-clock stage profiler refines
  /// per stage.
  std::vector<double> parked_wall_seconds;

  double makespan() const;
  /// Order-independent digest of everything deterministic about the run:
  /// clocks, per-stage costs, and failed ranks — deliberately excluding
  /// wall_seconds and the schedule itself. Two runs of a schedule-correct
  /// program under different schedules produce equal fingerprints; the
  /// determinism auditor diffs these.
  std::uint64_t fingerprint() const;
  /// Max-over-ranks cost of one stage (the modeled time that stage adds to
  /// the critical path, assuming stage boundaries synchronize).
  StageCost stage_max(const std::string& stage) const;
  /// Sum over ranks (total volume measures).
  StageCost stage_sum(const std::string& stage) const;
  std::vector<std::string> stages() const;
};

}  // namespace sp::comm
