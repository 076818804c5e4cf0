// Chaos harness: one seeded fuzz case of the fault-tolerant pipeline.
//
// A case derives a random FaultPlan (comm/chaos.hpp) plus randomized
// recovery knobs (budget, failure detector) from its seed, runs ScalaPart
// under it, and checks the survivability contract: the run either
// completes with a validator-clean partition or raises a structured
// RecoveryExhaustedError. Any other outcome — an unexpected exception
// type, a deadlock, a validator violation — is a failed case, and because
// everything is a pure function of (graph, options, seed), a failing seed
// replays bit-for-bit.
//
// Shared by the chaos tests (tests/test_chaos.cpp) and the sweep tool
// (tools/chaos_fuzz.cpp) so both enforce the identical invariant.
#pragma once

#include <cstdint>
#include <string>

#include "core/scalapart.hpp"
#include "graph/csr_graph.hpp"

namespace sp::core {

struct ChaosCaseResult {
  /// The run completed with a validator-clean partition.
  bool completed = false;
  /// The run raised RecoveryExhaustedError (a legal outcome).
  bool exhausted = false;
  /// Non-empty on contract violation: unexpected exception type,
  /// validator violation, or (via the test driver's timeout) a hang.
  std::string error;
  /// Human-readable description of the injected plan + knobs.
  std::string plan;
  /// Fingerprint of the partition side array (0 unless completed).
  std::uint64_t part_fp = 0;
  /// RunStats fingerprint (clocks/traces/failures; 0 unless completed).
  std::uint64_t stats_fp = 0;
  std::uint32_t recoveries = 0;
  std::uint32_t final_active = 0;
  std::size_t failed_ranks = 0;
  /// Flight-recorder dump written for this case ("" when none: the case
  /// passed, or no dump directory was configured via
  /// ScalaPartOptions::flight_dir / SP_FLIGHT_DIR). Contract violations
  /// always attempt a dump; legal abnormal exits dump inside scalapart.
  std::string dump_path;

  /// The survivability contract.
  bool ok() const { return (completed || exhausted) && error.empty(); }
};

/// Runs one seeded chaos case of ScalaPart on `g`. `base` supplies the
/// non-chaos options (nranks, backend, threads, seed...); the fault plan,
/// the recovery budget, and the failure-detector settings are derived
/// from `case_seed` and overwrite the corresponding fields.
ChaosCaseResult run_chaos_case(const graph::CsrGraph& g,
                               const ScalaPartOptions& base,
                               std::uint64_t case_seed);

}  // namespace sp::core
