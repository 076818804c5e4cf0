// Determinism auditor: runs an SPMD program under several fiber resume
// schedules and diffs the results.
//
// The BSP engine's collectives canonicalize everything by group rank
// (allreduce combines in rank order, allgather concatenates in rank
// order, exchange sorts inboxes by source), so a correct SPMD program
// produces bit-identical traces and results no matter which order the
// scheduler resumes fibers in. The one way order can leak into results is
// through shared mutable state touched outside the Comm API — exactly the
// class of bug that corrupts partitions without crashing. This auditor
// makes that class testable: any divergence across schedules is flagged
// with the schedules and fingerprints involved.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "comm/engine.hpp"

namespace sp::analysis {

/// One schedule to audit under. `seed` only matters for kSeededShuffle.
struct SchedulePoint {
  comm::Schedule schedule = comm::Schedule::kRoundRobin;
  std::uint64_t seed = 0;
};

/// The default audit set: round-robin, reversed, and one seeded shuffle —
/// the ISSUE-mandated "at least 3 schedules".
std::vector<SchedulePoint> default_schedules(std::uint64_t shuffle_seed = 0xD5);

struct DeterminismReport {
  bool deterministic = true;
  /// One entry per divergent schedule, naming what differed from the
  /// first (reference) schedule.
  std::vector<std::string> divergences;
  /// Per-schedule fingerprints (aligned with the schedules audited).
  std::vector<std::uint64_t> trace_fingerprints;
  std::vector<std::uint64_t> result_fingerprints;
  std::size_t schedules_run = 0;

  std::string str() const;
};

/// Returns a fresh program closure per run. A factory (rather than a bare
/// program) because SPMD programs typically capture shared result state
/// that must be reset between runs.
using ProgramFactory = std::function<std::function<void(comm::Comm&)>()>;

/// Called after each run; returns a fingerprint of the externally visible
/// result (e.g. a hash of the partition vector). May be null, in which
/// case only the RunStats traces are diffed.
using ResultFingerprint = std::function<std::uint64_t()>;

/// Runs `make_program()` once per schedule on an engine built from `base`
/// (its schedule fields are overwritten) and diffs RunStats fingerprints
/// and result fingerprints against the first schedule's.
DeterminismReport audit_determinism(comm::BspEngine::Options base,
                                    const ProgramFactory& make_program,
                                    const ResultFingerprint& result_fingerprint,
                                    std::span<const SchedulePoint> schedules);

/// Convenience overload using default_schedules().
DeterminismReport audit_determinism(comm::BspEngine::Options base,
                                    const ProgramFactory& make_program,
                                    const ResultFingerprint& result_fingerprint = nullptr);

/// One execution configuration for the cross-backend audit: a backend
/// plus its relevant knob (resume schedule for kFiber, worker-thread cap
/// for kThreads).
struct BackendPoint {
  exec::Backend backend = exec::Backend::kFiber;
  comm::Schedule schedule = comm::Schedule::kRoundRobin;  // kFiber only
  std::uint64_t schedule_seed = 0;                        // kSeededShuffle only
  std::uint32_t threads = 0;                              // kThreads only
  std::string label() const;
};

/// The default cross-backend audit set: two fiber schedules, the threads
/// backend at thread counts 2 and 8, and the process backend. Real-thread
/// points exercise interleavings no fiber schedule can produce, so this
/// audit subsumes the schedule sweep as a shared-state race detector.
std::vector<BackendPoint> default_backend_points();

/// Runs `make_program()` once per execution configuration and diffs
/// RunStats and result fingerprints against the first point's — the
/// cross-backend analogue of audit_determinism. A divergence means
/// ordering or interleaving leaked into results: a shared-state bug.
DeterminismReport audit_backends(comm::BspEngine::Options base,
                                 const ProgramFactory& make_program,
                                 const ResultFingerprint& result_fingerprint,
                                 std::span<const BackendPoint> points);

/// Convenience overload using default_backend_points().
DeterminismReport audit_backends(comm::BspEngine::Options base,
                                 const ProgramFactory& make_program,
                                 const ResultFingerprint& result_fingerprint = nullptr);

/// Order-sensitive hash of arbitrary bytes (for result fingerprints).
std::uint64_t fingerprint_bytes(const void* data, std::size_t size);

}  // namespace sp::analysis
