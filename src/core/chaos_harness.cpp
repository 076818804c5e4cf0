#include "core/chaos_harness.hpp"

#include <exception>

#include "analysis/determinism.hpp"
#include "analysis/invariants.hpp"
#include "comm/chaos.hpp"
#include "obs/flight.hpp"
#include "obs/stage_names.hpp"
#include "support/random.hpp"

namespace sp::core {

ChaosCaseResult run_chaos_case(const graph::CsrGraph& g,
                               const ScalaPartOptions& base,
                               std::uint64_t case_seed) {
  ScalaPartOptions opt = base;

  // The fault plan itself: crashes (by event, virtual time, or pipeline
  // stage — including "recover"/"checkpoint", so cascading crashes during
  // recovery are in scope) plus stragglers. Horizons are sized for the
  // small fuzz graphs the sweep uses; later triggers simply never fire,
  // which is a legitimate (fault-free) case.
  comm::ChaosOptions chaos;
  chaos.max_crashes = 3;
  chaos.max_stragglers = 2;
  chaos.event_horizon = 300;
  chaos.time_horizon = 0.02;
  chaos.stages = {obs::stages::kCoarsen,   obs::stages::kEmbed,
                  obs::stages::kPartition, obs::stages::kOutput,
                  obs::stages::kRecover,   obs::stages::kCheckpoint};
  opt.faults = comm::random_fault_plan(case_seed, opt.nranks, chaos);

  // Randomize the recovery knobs too: a tight budget exercises the
  // RecoveryExhaustedError path, an enabled detector exercises
  // escalation kills on top of planned crashes.
  Rng knobs(hash64(case_seed ^ 0xB0D6E7ull));
  opt.max_recoveries = static_cast<std::uint32_t>(knobs.below(4));  // 0 = inf
  opt.recover_on_failure = true;
  if (knobs.chance(0.25)) {
    opt.detector.deadline_seconds = 1e-4 + knobs.uniform() * 2e-3;
    opt.detector.max_retries = static_cast<std::uint32_t>(knobs.below(3));
    opt.detector.backoff_seconds = knobs.uniform() * 1e-4;
  }

  ChaosCaseResult out;
  out.plan = comm::describe_fault_plan(opt.faults) + " | budget=" +
             (opt.max_recoveries == 0 ? std::string("inf")
                                      : std::to_string(opt.max_recoveries)) +
             (opt.detector.enabled()
                  ? " | detector deadline=" +
                        std::to_string(opt.detector.deadline_seconds) +
                        " retries=" + std::to_string(opt.detector.max_retries)
                  : "");
  // Own the flight recorder for the whole case: scalapart reuses the
  // installed recorder, dumps it on its own abnormal exits (budget
  // exhaustion, total failure), and this harness additionally dumps on
  // contract violations scalapart cannot see (validator failures,
  // unexpected exception types). The case seed rides in the metadata so
  // a dump alone suffices to replay the failure.
  obs::flight::FlightRecorder flight(opt.nranks);
  obs::flight::ScopedFlightRecording flight_scope(flight);
  flight.set_meta("chaos_case_seed", std::to_string(case_seed));
  flight.set_meta("chaos_plan", out.plan);
  try {
    const ScalaPartResult r = scalapart_partition(g, opt);
    out.completed = true;
    out.recoveries = r.recovery.recoveries;
    out.final_active = r.recovery.final_active_ranks;
    out.failed_ranks = r.recovery.failed_ranks.size();
    out.part_fp = analysis::fingerprint_bytes(r.part.side.data(),
                                              r.part.side.size());
    out.stats_fp = r.stats.fingerprint();
    const analysis::Violations v = analysis::validate_partition(g, r.part,
                                                                0.35);
    if (!v.empty()) {
      out.completed = false;
      out.error = "validator: " + v.front();
    }
  } catch (const RecoveryExhaustedError& e) {
    out.exhausted = true;
    out.recoveries = e.stats.recoveries;
    out.final_active = e.stats.final_active_ranks;
    out.failed_ranks = e.stats.failed_ranks.size();
  } catch (const std::exception& e) {
    out.error = std::string(e.what());
  } catch (...) {
    out.error = "non-standard exception escaped the pipeline";
  }
  if (!out.ok() && !flight.dumped()) {
    obs::flight::dump_abnormal(flight, opt.flight_dir,
                               "chaos contract violation: " + out.error);
  }
  out.dump_path = flight.dump_path();
  return out;
}

}  // namespace sp::core
