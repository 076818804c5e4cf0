#include "analysis/determinism.hpp"

#include "support/random.hpp"

namespace sp::analysis {

std::vector<SchedulePoint> default_schedules(std::uint64_t shuffle_seed) {
  return {
      {comm::Schedule::kRoundRobin, 0},
      {comm::Schedule::kReversed, 0},
      {comm::Schedule::kSeededShuffle, shuffle_seed},
  };
}

std::string DeterminismReport::str() const {
  std::string s = "determinism audit over " + std::to_string(schedules_run) +
                  " schedule(s): ";
  if (deterministic) return s + "deterministic";
  s += "SCHEDULE-DEPENDENT";
  for (const std::string& d : divergences) s += "\n  - " + d;
  return s;
}

std::uint64_t fingerprint_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = hash64(size + 0x0FF1CE);
  for (std::size_t i = 0; i < size; ++i) {
    h = hash64(h ^ (static_cast<std::uint64_t>(bytes[i]) + (i << 8)));
  }
  return h;
}

DeterminismReport audit_determinism(comm::BspEngine::Options base,
                                    const ProgramFactory& make_program,
                                    const ResultFingerprint& result_fingerprint,
                                    std::span<const SchedulePoint> schedules) {
  DeterminismReport report;
  for (const SchedulePoint& point : schedules) {
    base.schedule = point.schedule;
    base.schedule_seed = point.seed;
    comm::BspEngine engine(base);
    const auto program = make_program();
    const comm::RunStats stats = engine.run(program);
    report.trace_fingerprints.push_back(stats.fingerprint());
    report.result_fingerprints.push_back(
        result_fingerprint ? result_fingerprint() : 0);
    ++report.schedules_run;

    const std::size_t i = report.trace_fingerprints.size() - 1;
    if (i == 0) continue;
    const std::string vs = std::string(comm::schedule_name(point.schedule)) +
                           " vs " +
                           comm::schedule_name(schedules[0].schedule);
    if (report.trace_fingerprints[i] != report.trace_fingerprints[0]) {
      report.deterministic = false;
      report.divergences.push_back(
          "trace fingerprints differ (" + vs + "): " +
          std::to_string(report.trace_fingerprints[i]) + " vs " +
          std::to_string(report.trace_fingerprints[0]));
    }
    if (report.result_fingerprints[i] != report.result_fingerprints[0]) {
      report.deterministic = false;
      report.divergences.push_back(
          "result fingerprints differ (" + vs + "): " +
          std::to_string(report.result_fingerprints[i]) + " vs " +
          std::to_string(report.result_fingerprints[0]));
    }
  }
  return report;
}

DeterminismReport audit_determinism(
    comm::BspEngine::Options base, const ProgramFactory& make_program,
    const ResultFingerprint& result_fingerprint) {
  const auto schedules = default_schedules();
  return audit_determinism(std::move(base), make_program, result_fingerprint,
                           schedules);
}

std::string BackendPoint::label() const {
  if (backend == exec::Backend::kFiber) {
    return std::string("fiber/") + comm::schedule_name(schedule);
  }
  if (backend == exec::Backend::kProcess) return "process";
  return "threads/T=" + std::to_string(threads);
}

std::vector<BackendPoint> default_backend_points() {
  return {
      {exec::Backend::kFiber, comm::Schedule::kRoundRobin, 0, 0},
      {exec::Backend::kFiber, comm::Schedule::kReversed, 0, 0},
      {exec::Backend::kThreads, comm::Schedule::kRoundRobin, 0, 2},
      {exec::Backend::kThreads, comm::Schedule::kRoundRobin, 0, 8},
      // Forked-rank point: proves the wire protocol (packed frames, RPC
      // replay, host-memory seam) reproduces the in-process results bit
      // for bit, not just approximately.
      {exec::Backend::kProcess, comm::Schedule::kRoundRobin, 0, 0},
  };
}

DeterminismReport audit_backends(comm::BspEngine::Options base,
                                 const ProgramFactory& make_program,
                                 const ResultFingerprint& result_fingerprint,
                                 std::span<const BackendPoint> points) {
  DeterminismReport report;
  for (const BackendPoint& point : points) {
    base.backend = point.backend;
    base.schedule = point.schedule;
    base.schedule_seed = point.schedule_seed;
    base.threads = point.threads;
    comm::BspEngine engine(base);
    const auto program = make_program();
    const comm::RunStats stats = engine.run(program);
    report.trace_fingerprints.push_back(stats.fingerprint());
    report.result_fingerprints.push_back(
        result_fingerprint ? result_fingerprint() : 0);
    ++report.schedules_run;

    const std::size_t i = report.trace_fingerprints.size() - 1;
    if (i == 0) continue;
    const std::string vs = point.label() + " vs " + points[0].label();
    if (report.trace_fingerprints[i] != report.trace_fingerprints[0]) {
      report.deterministic = false;
      report.divergences.push_back(
          "trace fingerprints differ (" + vs + "): " +
          std::to_string(report.trace_fingerprints[i]) + " vs " +
          std::to_string(report.trace_fingerprints[0]));
    }
    if (report.result_fingerprints[i] != report.result_fingerprints[0]) {
      report.deterministic = false;
      report.divergences.push_back(
          "result fingerprints differ (" + vs + "): " +
          std::to_string(report.result_fingerprints[i]) + " vs " +
          std::to_string(report.result_fingerprints[0]));
    }
  }
  return report;
}

DeterminismReport audit_backends(comm::BspEngine::Options base,
                                 const ProgramFactory& make_program,
                                 const ResultFingerprint& result_fingerprint) {
  const auto points = default_backend_points();
  return audit_backends(std::move(base), make_program, result_fingerprint,
                        points);
}

}  // namespace sp::analysis
