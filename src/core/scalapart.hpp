// ScalaPart: the complete pipeline of the paper.
//
//   coarsen (distributed heavy-edge matching, keep every other level)
//   -> multilevel fixed-lattice parallel embedding
//   -> parallel geometric mesh partitioning (SP-PG7-NL)
//   -> Fiduccia-Mattheyses refinement on a geometric strip.
//
// The pipeline executes as an SPMD program on the deterministic BSP
// runtime (src/comm): cut sizes are computed for real by P cooperating
// ranks; execution *time* is the runtime's modeled virtual clock (see
// DESIGN.md on why wall-clock cannot measure 1024-rank scaling on one
// node). P = 1 degenerates to a purely sequential run of the same
// algorithm, which is how the library serves single-process users.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/fault_plan.hpp"
#include "comm/trace.hpp"
#include "embed/lattice_parallel.hpp"
#include "geometry/vec.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "partition/parallel_gmt.hpp"

namespace sp::core {

struct ScalaPartOptions {
  /// Number of simulated ranks; must be a power of two.
  std::uint32_t nranks = 16;
  comm::CostModel cost_model = comm::CostModel::nehalem_qdr();

  /// Coarsening: target coarsest size; 2 matching rounds per retained
  /// level gives the paper's ~1/4 shrink. 0 = automatic: N/256 clamped to
  /// [64, 4096], which keeps the coarsest graph a fixed *fraction* of the
  /// input (the paper picks k so V^k is "suitably small"; a fixed absolute
  /// size would make the serial coarse-level embedding an outsized Amdahl
  /// term on scaled-down graphs).
  graph::VertexId coarsest_size = 0;
  std::uint32_t matching_rounds = 3;
  /// Matching+contraction rounds per retained hierarchy level: 2 is the
  /// paper's keep-every-other-graph rule (~1/4 shrink); 1 keeps every
  /// level (~1/2 shrink, the classic multilevel layout — ablation).
  std::uint32_t hierarchy_rounds = 2;

  embed::LatticeEmbedOptions embed;
  partition::ParallelGmtOptions gmt;

  std::uint64_t seed = 42;

  /// Execution backend for the BSP engine: kFiber (default, one OS
  /// thread) or kThreads (one thread per rank, `threads` runnable at a
  /// time). The partition, trace, and modeled clocks are bit-identical
  /// across backends and thread counts; only wall time changes.
  exec::Backend backend = exec::Backend::kFiber;
  /// Worker-thread cap for the threads backend; 0 = hw_concurrency.
  std::uint32_t threads = 0;

  /// Fiber resume order of the BSP engine. ScalaPart is schedule-correct:
  /// every schedule yields a bit-identical partition and trace (the
  /// determinism auditor in sp::analysis verifies this), so this knob
  /// exists for auditing, not tuning.
  comm::Schedule schedule = comm::Schedule::kRoundRobin;
  std::uint64_t schedule_seed = 0x5EEDu;

  /// Deterministic faults injected into the BSP run (empty = fault-free).
  /// The same plan + seed reproduces the identical failure, recovery,
  /// trace, and partition bit-for-bit.
  comm::FaultPlan faults;
  /// Recover from injected rank crashes: survivors shrink to a new
  /// communicator, the largest power-of-two prefix resumes from the last
  /// level-boundary checkpoint (spare survivors retire), and the pipeline
  /// completes on the reduced rank set. When false, a crash propagates
  /// out of scalapart_partition as comm::RankFailedError.
  bool recover_on_failure = true;
  /// Recovery budget: maximum shrink-and-resume rounds before the run
  /// gives up with RecoveryExhaustedError. 0 = unbounded (recover as
  /// long as at least one rank survives).
  std::uint32_t max_recoveries = 0;
  /// Timeout-based failure detector on the modeled clock (DESIGN.md §4a).
  /// Disabled by default; when enabled, a rank whose rendezvous arrival
  /// lags its group by more than the deadline is retried with modeled
  /// backoff and, past max_retries, declared failed and shrunk away like
  /// a crash.
  comm::FailureDetectorOptions detector;
  /// Directory for durable level-boundary checkpoints (empty = in-memory
  /// only). When set, every embed checkpoint is additionally serialized
  /// to <checkpoint_dir>/scalapart.ckpt (versioned, checksummed frames;
  /// atomic replace), and resume_from_checkpoint() can cold-restart the
  /// pipeline from it after process death. Durable persistence is
  /// host-side I/O: it costs no modeled time.
  std::string checkpoint_dir;

  /// Flight recorder (obs::flight, DESIGN.md §9): per-rank ring capacity
  /// of the always-on black box scalapart_run installs when no recorder
  /// is active. 0 disables it. Ignored when an outer
  /// ScopedFlightRecording is already installed (that recorder is reused,
  /// as the chaos harness does).
  std::uint32_t flight_capacity = 256;
  /// Where abnormal exits dump the flight record. Empty = use the
  /// SP_FLIGHT_DIR environment variable; when that is empty too, no dump
  /// is written (recording still happens — an enclosing harness may dump
  /// the recorder itself).
  std::string flight_dir;

  /// Convenience: derive all per-stage seeds from `seed` and `nranks` so
  /// different P values explore different separators (as in the paper,
  /// where cut size varies with P).
  ScalaPartOptions with_seed(std::uint64_t s) const {
    ScalaPartOptions o = *this;
    o.seed = s;
    return o;
  }
};

struct StageBreakdown {
  double coarsen_seconds = 0.0;
  double embed_seconds = 0.0;
  double partition_seconds = 0.0;
  double embed_comm_seconds = 0.0;    // within embed_seconds
  double embed_compute_seconds = 0.0; // within embed_seconds
  double total() const {
    return coarsen_seconds + embed_seconds + partition_seconds;
  }
};

/// What fault tolerance cost this run (all zeros on a fault-free run
/// without scheduled crashes; checkpointing is only enabled when the
/// fault plan contains crashes).
struct RecoveryStats {
  /// World ranks killed by the fault plan, in order of death.
  std::vector<std::uint32_t> failed_ranks;
  /// Shrink-and-resume rounds performed.
  std::uint32_t recoveries = 0;
  /// Ranks still computing when the pipeline completed (power of two;
  /// equals nranks when nothing failed).
  std::uint32_t final_active_ranks = 0;
  /// Modeled time spent writing level-boundary checkpoints (max over
  /// ranks) and recovering (shrink + redistribution), respectively.
  double checkpoint_seconds = 0.0;
  double recover_seconds = 0.0;
  /// Messages charged to checkpointing / recovery, summed over ranks.
  std::uint64_t checkpoint_messages = 0;
  std::uint64_t recover_messages = 0;
  /// Failure-detector totals for the run (zeros when the detector is
  /// off).
  comm::DetectorStats detector;
  /// Durable checkpoints written to checkpoint_dir (0 when in-memory).
  std::uint32_t checkpoints_persisted = 0;
  /// True when this run was cold-started from a durable checkpoint.
  bool resumed_from_disk = false;
};

/// The pipeline could not complete despite fault tolerance being on: the
/// recovery budget (ScalaPartOptions::max_recoveries) was exhausted, or
/// every rank died. Carries the fault-tolerance accounting gathered up to
/// the failure, so callers can report what was survived before giving up.
class RecoveryExhaustedError : public std::runtime_error {
 public:
  RecoveryExhaustedError(const std::string& what, RecoveryStats stats)
      : std::runtime_error("recovery exhausted: " + what),
        stats(std::move(stats)) {}

  RecoveryStats stats;
};

struct ScalaPartResult {
  graph::Bipartition part;
  graph::PartitionReport report;
  /// Modeled parallel execution time (max rank clock), seconds.
  double modeled_seconds = 0.0;
  StageBreakdown stages;
  /// Modeled time of the partition stage alone (SP-PG7-NL, the quantity
  /// Figure 4 compares against RCB).
  double partition_only_seconds = 0.0;
  /// Full per-rank trace for deeper analysis (Fig. 8).
  comm::RunStats stats;
  /// Final embedding (gathered), useful for inspection and examples.
  std::vector<geom::Vec2> embedding;
  std::size_t strip_size = 0;
  /// Fault-tolerance accounting (see RecoveryStats).
  RecoveryStats recovery;
};

/// Runs the full ScalaPart pipeline on `g`. Deterministic given options.
ScalaPartResult scalapart_partition(const graph::CsrGraph& g,
                                    const ScalaPartOptions& opt);

/// Cold-restarts the pipeline from the durable checkpoint in
/// opt.checkpoint_dir (which must be set): coarsening re-runs (it is a
/// deterministic function of the options), the embedding resumes at the
/// checkpointed level with its exact ownership map, and the result is
/// bit-identical to the uninterrupted run of the same options. Throws
/// CheckpointError (core/checkpoint.hpp) when the file is missing,
/// corrupt, or was written by a different graph/seed/rank-count.
ScalaPartResult resume_from_checkpoint(const graph::CsrGraph& g,
                                       const ScalaPartOptions& opt);

/// Partition-only entry point (SP-PG7-NL): for graphs that already have
/// coordinates (the use case of Figure 4), skipping coarsening/embedding.
/// The coordinates are block-distributed and cut with the parallel
/// geometric scheme + strip refinement.
ScalaPartResult sp_pg7nl_partition(const graph::CsrGraph& g,
                                   std::span<const geom::Vec2> coords,
                                   const ScalaPartOptions& opt);

}  // namespace sp::core
