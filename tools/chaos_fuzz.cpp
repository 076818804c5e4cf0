// Seeded chaos sweep over the fault-tolerant ScalaPart pipeline.
//
// Each seed derives a random FaultPlan (crashes by event/time/stage,
// stragglers, message faults) plus randomized recovery knobs (budget,
// failure detector) and runs the pipeline under it, asserting the
// survivability contract: every case either completes with a
// validator-clean partition or raises a structured
// RecoveryExhaustedError — never an unhandled exception and never a hang.
//
// Usage:
//   chaos_fuzz [--seeds=N] [--seed0=S] [--n=V] [--p=P]
//              [--backend=fiber|threads|process] [--threads=T]
//              [--replay=SEED] [--verbose] [--flight-dir=DIR]
//              [--kill-rank=R --kill-stage=STAGE]
//
// The sweep prints one line per failing seed (with the injected plan) and
// a summary. --replay=SEED reruns one case twice, prints its plan and
// outcome, and verifies the two runs are bit-for-bit identical — the
// reproduction workflow for a seed reported by CI. When a flight-dump
// directory is configured (--flight-dir or SP_FLIGHT_DIR), every failing
// case leaves a postmortem dump and its path is printed with the failure.
//
// --kill-rank=R --kill-stage=STAGE is the CI postmortem smoke: it runs
// one deterministic case with recovery off and a fault plan that kills
// exactly rank R in stage STAGE, so the abnormal exit writes a dump whose
// tools/postmortem diagnosis must name that rank and stage.
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/chaos_harness.hpp"
#include "core/scalapart.hpp"
#include "exec/executor.hpp"
#include "graph/generators.hpp"
#include "obs/flight.hpp"
#include "support/options.hpp"

int main(int argc, char** argv) {
  using namespace sp;
  Options opts(argc, argv);
  const std::uint64_t seeds =
      static_cast<std::uint64_t>(opts.get_int("seeds", 500));
  const std::uint64_t seed0 =
      static_cast<std::uint64_t>(opts.get_int("seed0", 0));
  const std::int64_t n = opts.get_int("n", 900);
  const bool verbose = opts.get_bool("verbose", false);
  const bool replay = opts.has("replay");
  const std::uint64_t replay_seed =
      static_cast<std::uint64_t>(opts.get_int("replay", 0));

  const bool kill_mode = opts.has("kill-rank");
  [[maybe_unused]] const std::uint32_t kill_rank =
      static_cast<std::uint32_t>(opts.get_int("kill-rank", 0));
  [[maybe_unused]] const std::string kill_stage =
      opts.get("kill-stage", "embed");

  core::ScalaPartOptions base;
  base.nranks = static_cast<std::uint32_t>(opts.get_int("p", 8));
  base.backend = exec::parse_backend(opts.get("backend", "fiber"));
  base.threads = static_cast<std::uint32_t>(opts.get_int("threads", 0));
  base.flight_dir = opts.get("flight-dir", "");
  for (const std::string& key : opts.unused()) {
    std::fprintf(stderr, "chaos_fuzz: unknown option --%s\n", key.c_str());
    return 2;
  }

  const auto g = graph::gen::delaunay(static_cast<graph::VertexId>(n), 42)
                     .graph;

  auto outcome = [](const core::ChaosCaseResult& r) {
    if (!r.error.empty()) return "FAIL: " + r.error;
    if (r.completed) {
      return "completed (recoveries=" + std::to_string(r.recoveries) +
             ", failed=" + std::to_string(r.failed_ranks) +
             ", active=" + std::to_string(r.final_active) + ")";
    }
    return "exhausted (recoveries=" + std::to_string(r.recoveries) +
           ", failed=" + std::to_string(r.failed_ranks) + ")";
  };

  if (kill_mode) {
    core::ScalaPartOptions opt = base;
    opt.recover_on_failure = false;
    opt.faults.kill_in_stage(kill_rank, kill_stage);
    sp::obs::flight::FlightRecorder flight(opt.nranks);
    sp::obs::flight::ScopedFlightRecording scope(flight);
    std::string error;
    try {
      (void)core::scalapart_partition(g, opt);
      error = "run completed; the kill trigger never fired";
    } catch (const comm::RankFailedError&) {
      // The expected abnormal exit: scalapart dumped the recorder.
    } catch (const std::exception& e) {
      error = e.what();
    }
    std::printf("kill-mode: rank=%u stage=%s\n", kill_rank,
                kill_stage.c_str());
    if (!error.empty()) {
      std::printf("  UNEXPECTED: %s\n", error.c_str());
      return 1;
    }
    if (flight.dump_path().empty()) {
      std::printf("  FAIL: no postmortem dump was written (set --flight-dir "
                  "or SP_FLIGHT_DIR)\n");
      return 1;
    }
    std::printf("  dump: %s\n", flight.dump_path().c_str());
    return 0;
  }

  if (replay) {
    const auto a = core::run_chaos_case(g, base, replay_seed);
    const auto b = core::run_chaos_case(g, base, replay_seed);
    std::printf("seed %llu\n  plan:    %s\n  outcome: %s\n",
                static_cast<unsigned long long>(replay_seed),
                a.plan.c_str(), outcome(a).c_str());
    const bool identical = a.completed == b.completed &&
                           a.exhausted == b.exhausted && a.error == b.error &&
                           a.part_fp == b.part_fp && a.stats_fp == b.stats_fp;
    std::printf("  replay:  %s (part_fp=%016llx stats_fp=%016llx)\n",
                identical ? "bit-identical" : "DIVERGED",
                static_cast<unsigned long long>(a.part_fp),
                static_cast<unsigned long long>(a.stats_fp));
    if (!a.dump_path.empty()) {
      std::printf("  dump:    %s\n", a.dump_path.c_str());
    }
    return (a.ok() && identical) ? 0 : 1;
  }

  std::uint64_t completed = 0, exhausted = 0, failures = 0;
  for (std::uint64_t s = seed0; s < seed0 + seeds; ++s) {
    const auto r = core::run_chaos_case(g, base, s);
    if (!r.ok()) {
      ++failures;
      std::printf("FAIL seed %llu [%s]\n  %s\n  replay: chaos_fuzz "
                  "--replay=%llu --p=%u --n=%lld --backend=%s\n",
                  static_cast<unsigned long long>(s), r.plan.c_str(),
                  r.error.c_str(), static_cast<unsigned long long>(s),
                  base.nranks, static_cast<long long>(n),
                  exec::backend_name(base.backend));
      if (!r.dump_path.empty()) {
        std::printf("  dump: %s\n", r.dump_path.c_str());
      }
    } else if (verbose) {
      std::printf("seed %llu [%s]\n  %s\n",
                  static_cast<unsigned long long>(s), r.plan.c_str(),
                  outcome(r).c_str());
    }
    completed += r.completed ? 1 : 0;
    exhausted += r.exhausted ? 1 : 0;
  }
  std::printf("chaos_fuzz: %llu seeds on %s backend (p=%u): "
              "%llu completed, %llu exhausted, %llu contract failures\n",
              static_cast<unsigned long long>(seeds),
              exec::backend_name(base.backend), base.nranks,
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(exhausted),
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}
