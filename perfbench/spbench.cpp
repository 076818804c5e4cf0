// spbench: the benchmark's generating and measuring program.
//
//   spbench gen --workload W --seed S --root DIR
//       Generates the workload's inputs from S into DIR/<input set>-s<S>/
//       as METIS (and coordinate) files, checks that each reads back, and
//       writes inputs.tsv with each input's vertex count, arc count and
//       content checksum. Prints the
//       directory. An input directory that is already complete is kept.
//   spbench measure --workload W --inputs DIR --seconds T [--spans FILE]
//       Loads the inputs and partitions every input once as an untimed
//       warm-up, then loads them a few times (set-up, timed) and partitions
//       every input once per timed pass until T seconds have passed,
//       checking every result from outside, and loads the inputs again
//       before each pass. Every pass and load is timed in wall and in
//       process CPU seconds. Prints one JSON object of raw samples.
//       With --spans it then runs the traced replay (replay.cpp) and adds
//       its per-layer metrics.
//
// Generation and measurement are separate processes, so the measuring
// process's set-up time and peak memory belong to the program alone.
#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "core/testsuite.hpp"
#include "graph/graph_io.hpp"
#include "obs/json.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using sp::graph::VertexId;
using sp::obs::JsonValue;

namespace spbench {
namespace {

constexpr std::size_t kMinPasses = 3;
/// Set-up is timed this many times after the warm-up pass, besides once
/// before every timed pass: a run needs a few more samples of it than it
/// has passes.
constexpr std::size_t kSetupLoads = 3;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU seconds of the whole process, all threads: user + system.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and CPU seconds of a span of work.
struct Times {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Stopwatch {
 public:
  Stopwatch() : wall0_(std::chrono::steady_clock::now()), cpu0_(process_cpu_s()) {}
  Times read() const { return {seconds_since(wall0_), process_cpu_s() - cpu0_}; }

 private:
  std::chrono::steady_clock::time_point wall0_;
  double cpu0_;
};

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string files_checksum(const std::string& graph_path,
                           const std::string& coords_path) {
  std::string bytes = file_bytes(graph_path);
  if (!coords_path.empty()) bytes += file_bytes(coords_path);
  return fingerprint_hex(bytes.data(), bytes.size());
}

std::string file_stem(std::string name) {
  for (char& c : name) {
    if (c == '-' || c == '.') c = '_';
  }
  return name;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool has_isolated_vertex(const sp::graph::CsrGraph& g) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == 0) return true;
  }
  return false;
}

/// Generates instance `instance` of suite graph `name`. Draws whose graph
/// has an isolated vertex are skipped for the next derived seed: METIS
/// writes an isolated vertex as a blank line, which read_metis skips, so
/// such a file does not read back.
sp::graph::gen::GeneratedGraph generate(const std::string& name, double scale,
                                        std::uint64_t seed,
                                        std::uint32_t instance) {
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t s = splitmix64(seed ^ splitmix64(instance * 64 + attempt));
    auto gen = sp::core::make_suite_graph(name, scale, s);
    if (!has_isolated_vertex(gen.graph)) return gen;
  }
  throw std::runtime_error(name + ": every draw has an isolated vertex");
}

int cmd_gen(const Workload& w, std::uint64_t seed, const std::string& root) {
  const fs::path dir =
      fs::path(root) / (w.input_set + "-s" + std::to_string(seed));
  const fs::path manifest = dir / "inputs.tsv";
  if (!fs::exists(manifest)) {
    fs::create_directories(dir);
    std::ostringstream tsv;
    for (const std::string& graph : w.graphs) {
      for (std::uint32_t k = 0; k < w.instances; ++k) {
        auto gen = generate(graph, w.scale, seed, k);
        const std::string name = graph + "." + std::to_string(k);
        const std::string stem = file_stem(name);
        const fs::path graph_path = dir / (stem + ".graph");
        sp::graph::io::write_metis_file(gen.graph, graph_path.string());
        const auto back = sp::graph::io::read_metis_file(graph_path.string());
        if (back.num_vertices() != gen.graph.num_vertices() ||
            back.num_arcs() != gen.graph.num_arcs()) {
          throw std::runtime_error(name + ": written file does not read back");
        }
        std::string coords_file = "-";
        fs::path coords_path;
        if (w.with_coords) {
          if (gen.coords.size() != gen.graph.num_vertices()) {
            throw std::runtime_error(name + " has no coordinates");
          }
          coords_file = stem + ".xy";
          coords_path = dir / coords_file;
          std::ofstream os(coords_path);
          os << std::setprecision(17);
          sp::graph::io::write_coords(gen.coords, os);
          if (!os) throw std::runtime_error("cannot write " + coords_path.string());
        }
        tsv << name << '\t' << gen.graph.num_vertices() << '\t'
            << gen.graph.num_arcs() << '\t'
            << files_checksum(graph_path.string(), coords_path.string())
            << '\t' << stem << ".graph\t" << coords_file << '\n';
      }
    }
    // The manifest appears last and whole: its presence marks a complete
    // input directory.
    const fs::path tmp = dir / "inputs.tsv.tmp";
    {
      std::ofstream os(tmp);
      os << tsv.str();
      if (!os) throw std::runtime_error("cannot write " + tmp.string());
    }
    fs::rename(tmp, manifest);
  }
  std::cout << dir.string() << '\n';
  return 0;
}

/// Reads inputs.tsv and verifies every file against its checksum (which
/// also brings the files into the page cache before set-up is timed).
std::vector<InputFile> read_manifest(const std::string& dir) {
  std::ifstream is(fs::path(dir) / "inputs.tsv");
  if (!is) throw std::runtime_error("no inputs.tsv in " + dir);
  std::vector<InputFile> files;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    InputFile f;
    std::string graph_file, coords_file;
    if (!(ls >> f.name >> f.n >> f.arcs >> f.checksum >> graph_file >>
          coords_file)) {
      throw std::runtime_error("malformed inputs.tsv line: " + line);
    }
    f.graph_path = (fs::path(dir) / graph_file).string();
    if (coords_file != "-") {
      f.coords_path = (fs::path(dir) / coords_file).string();
    }
    if (files_checksum(f.graph_path, f.coords_path) != f.checksum) {
      throw std::runtime_error(f.name + ": input files do not match their checksum");
    }
    files.push_back(std::move(f));
  }
  if (files.empty()) throw std::runtime_error("empty inputs.tsv in " + dir);
  return files;
}

/// Outside checks of a bipartition returned by scalapart_partition or
/// sp_pg7nl_partition: cut recomputed, balance within epsilon.
CallRecord check_bipartition(const Input& in, const char* entry,
                             const sp::core::ScalaPartResult& r,
                             double epsilon) {
  const auto n = in.graph.num_vertices();
  if (r.part.size() != n) throw CheckFailure("partition has wrong size");
  for (std::uint8_t s : r.part.side) {
    if (s > 1) throw CheckFailure("side id out of range");
  }
  const auto rep = sp::graph::evaluate(in.graph, r.part);
  if (rep.cut != r.report.cut) {
    throw CheckFailure("reported cut " + std::to_string(r.report.cut) +
                       " but the partition cuts " + std::to_string(rep.cut));
  }
  if (rep.imbalance > epsilon + 1e-12) {
    throw CheckFailure("imbalance " + std::to_string(rep.imbalance) +
                       " above epsilon " + std::to_string(epsilon));
  }
  if (!(r.modeled_seconds > 0.0)) throw CheckFailure("no modeled time");
  return {in.name, entry, rep.cut, rep.imbalance, r.modeled_seconds,
          part_fp(r.part.side)};
}

/// Outside checks of a k-way partition: cut recomputed, every part used,
/// balance within the per-bisection epsilon compounded over the levels of
/// the recursion.
CallRecord check_kway(const Input& in, const sp::core::KwayOptions& opt,
                      const sp::core::KwayResult& r) {
  if (r.part.size() != in.graph.num_vertices()) {
    throw CheckFailure("partition has wrong size");
  }
  std::vector<bool> used(opt.parts, false);
  for (std::uint32_t p : r.part) {
    if (p >= opt.parts) throw CheckFailure("part id out of range");
    used[p] = true;
  }
  for (bool u : used) {
    if (!u) throw CheckFailure("empty part");
  }
  const long long cut = sp::core::kway_cut(in.graph, r.part);
  if (cut != r.total_cut) {
    throw CheckFailure("reported cut " + std::to_string(r.total_cut) +
                       " but the partition cuts " + std::to_string(cut));
  }
  const double imbalance = sp::core::kway_imbalance(in.graph, r.part, opt.parts);
  const double levels = std::ceil(std::log2(static_cast<double>(opt.parts)));
  const double bound = std::pow(1.0 + opt.epsilon, levels) - 1.0;
  if (imbalance > bound + 1e-12) {
    throw CheckFailure("k-way imbalance " + std::to_string(imbalance) +
                       " above " + std::to_string(bound));
  }
  return {in.name, "kway", cut, imbalance, 0.0, part_fp(r.part)};
}

/// Runs every call of one pass over `inputs`, checking each, and appends
/// each call's wall seconds (checks excluded) to `call_s`; returns the
/// wall and CPU seconds of the calls summed. `first` holds each call's
/// record from the first pass; later passes must reproduce it. `reference_fp`, when set, holds a part_fp per
/// scalapart call that the result must equal.
Times run_pass(const Workload& w, const std::vector<Input>& inputs,
               std::vector<CallRecord>& first,
               std::vector<std::vector<double>>& call_s,
               const std::vector<std::string>* reference_fp, Tally& tally) {
  const auto sp_opt = scalapart_options(w);
  const auto kw_opt = kway_options(w);
  const bool first_pass = first.empty();
  Times pass;
  std::size_t call = 0;
  auto timed = [&](const Stopwatch& sw) {
    const Times dt = sw.read();
    if (call_s.size() <= call) call_s.resize(call + 1);
    call_s[call].push_back(dt.wall_s);
    pass.wall_s += dt.wall_s;
    pass.cpu_s += dt.cpu_s;
  };
  auto check = [&](CallRecord rec, std::size_t index) {
    if (first_pass) {
      first.push_back(rec);
      return;
    }
    const CallRecord& ref = first[index];
    if (rec.part_fp != ref.part_fp || rec.cut != ref.cut) {
      throw CheckFailure(rec.input + "/" + rec.entry +
                         ": partition differs between passes");
    }
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    const std::size_t calls = w.with_coords ? 2 : 1;
    for (std::size_t c = 0; c < calls; ++c, ++call) {
      ++tally.attempted;
      try {
        const Stopwatch sw;
        if (!w.with_coords) {
          auto r = sp::core::scalapart_partition(in.graph, sp_opt);
          timed(sw);
          auto rec = check_bipartition(in, "scalapart", r, sp_opt.gmt.epsilon);
          if (reference_fp != nullptr && (*reference_fp)[i] != rec.part_fp) {
            throw CheckFailure(in.name + ": threads partition differs from fiber");
          }
          check(std::move(rec), call);
        } else if (c == 0) {
          auto r = sp::core::sp_pg7nl_partition(in.graph, in.coords, sp_opt);
          timed(sw);
          check(check_bipartition(in, "pg7nl", r, sp_opt.gmt.epsilon), call);
        } else {
          auto r = sp::core::kway_partition_with_coords(in.graph, in.coords,
                                                        kw_opt);
          timed(sw);
          check(check_kway(in, kw_opt, r), call);
        }
      } catch (const std::exception& e) {
        tally.fail(in.name + ": " + e.what());
        if (first_pass) first.push_back({in.name, "failed", 0, 0.0, 0.0, ""});
      }
    }
  }
  return pass;
}

/// The fiber partition of each input, for the threads workload to match.
std::vector<std::string> fiber_reference(const Workload& w,
                                         const std::vector<Input>& inputs,
                                         Tally& tally) {
  auto opt = scalapart_options(w);
  opt.backend = sp::exec::Backend::kFiber;
  opt.threads = 0;
  std::vector<std::string> fps;
  for (const Input& in : inputs) {
    ++tally.attempted;
    try {
      auto r = sp::core::scalapart_partition(in.graph, opt);
      fps.push_back(check_bipartition(in, "scalapart", r, opt.gmt.epsilon).part_fp);
    } catch (const std::exception& e) {
      tally.fail(in.name + " (fiber reference): " + e.what());
      fps.emplace_back();
    }
  }
  return fps;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

JsonValue to_json(const std::vector<double>& xs) {
  JsonValue a = JsonValue::array();
  for (double x : xs) a.push(x);
  return a;
}

int cmd_measure(const Workload& w, const std::string& dir, double seconds,
                const std::string& spans_path) {
  const std::vector<InputFile> files = read_manifest(dir);
  JsonValue out = JsonValue::object();
  out["workload"] = w.name;
  JsonValue& build = out["build"];
  build["type"] = SPBENCH_BUILD_TYPE;
  build["compiler"] = SPBENCH_CXX_COMPILER;
  build["sp_flags"] = SPBENCH_SP_FLAGS;
  JsonValue& in_json = out["inputs"];
  in_json = JsonValue::array();
  for (const InputFile& f : files) {
    JsonValue j = JsonValue::object();
    j["name"] = f.name;
    j["n"] = static_cast<unsigned long long>(f.n);
    j["arcs"] = static_cast<unsigned long long>(f.arcs);
    j["checksum"] = f.checksum;
    in_json.push(std::move(j));
  }

  // Set-up is timed a few times after the warm-up pass and once before every
  // timed pass, so its samples spread over the whole run like the passes'.
  std::vector<double> setup_s, setup_cpu_s;
  std::vector<Input> inputs;
  auto load_all = [&] {
    inputs.clear();
    const Stopwatch sw;
    for (const InputFile& f : files) inputs.push_back(load_input(f));
    const Times dt = sw.read();
    setup_s.push_back(dt.wall_s);
    setup_cpu_s.push_back(dt.cpu_s);
  };
  load_all();
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (inputs[i].graph.num_vertices() != files[i].n ||
        inputs[i].graph.num_arcs() != files[i].arcs) {
      throw std::runtime_error(files[i].name + ": read graph differs from the generated one");
    }
  }

  Tally tally;
  std::vector<std::string> reference;
  if (w.backend == sp::exec::Backend::kThreads) {
    reference = fiber_reference(w, inputs, tally);
  }
  const auto* ref = reference.empty() ? nullptr : &reference;
  // The first pass warms caches and the allocator, and records the results
  // every later pass must reproduce; it is not timed.
  std::vector<CallRecord> first;
  std::vector<std::vector<double>> call_s;
  run_pass(w, inputs, first, call_s, ref, tally);
  call_s.clear();
  // The load before the warm-up pass ran on a cold allocator; it is not
  // counted.
  setup_s.clear();
  setup_cpu_s.clear();
  for (std::size_t k = 0; k < kSetupLoads; ++k) load_all();
  std::vector<double> pass_s, pass_cpu_s;
  const auto start = std::chrono::steady_clock::now();
  while (pass_s.size() < kMinPasses || seconds_since(start) < seconds) {
    load_all();
    const Times t = run_pass(w, inputs, first, call_s, ref, tally);
    pass_s.push_back(t.wall_s);
    pass_cpu_s.push_back(t.cpu_s);
  }
  out["peak_rss_mb"] = peak_rss_mb();
  out["setup_s"] = to_json(setup_s);
  out["setup_cpu_s"] = to_json(setup_cpu_s);
  out["pass_s"] = to_json(pass_s);
  out["pass_cpu_s"] = to_json(pass_cpu_s);
  JsonValue& calls = out["calls"];
  calls = JsonValue::array();
  for (std::size_t i = 0; i < first.size(); ++i) {
    const CallRecord& r = first[i];
    JsonValue j = JsonValue::object();
    j["input"] = r.input;
    j["entry"] = r.entry;
    j["cut"] = r.cut;
    j["imbalance"] = r.imbalance;
    j["modeled_s"] = r.modeled_s;
    j["part_fp"] = r.part_fp;
    j["seconds"] = to_json(i < call_s.size() ? call_s[i] : std::vector<double>{});
    calls.push(std::move(j));
  }

  if (!spans_path.empty()) {
    inputs.clear();  // the replay reads the files itself, under its spans
    out["trace"] = traced_replay(w, files, first, spans_path, tally);
  }
  out["attempted"] = static_cast<unsigned long long>(tally.attempted);
  out["failed"] = static_cast<unsigned long long>(tally.failed);
  JsonValue& errors = out["errors"];
  errors = JsonValue::array();
  for (const std::string& e : tally.errors) errors.push(e);
  std::cout << out.dump() << '\n';
  return 0;
}

int usage() {
  std::cerr << "usage: spbench gen --workload W --seed S --root DIR\n"
               "       spbench measure --workload W --inputs DIR --seconds T"
               " [--spans FILE]\n";
  return 2;
}

}  // namespace
}  // namespace spbench

int main(int argc, char** argv) {
  using namespace spbench;
  if (argc < 2 || argc % 2 != 0) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  auto arg = [&](const char* key) -> const std::string& {
    auto it = args.find(key);
    if (it == args.end()) throw std::invalid_argument(std::string("missing --") + key);
    return it->second;
  };
  try {
    const Workload& w = find_workload(arg("workload"));
    if (cmd == "gen") {
      return cmd_gen(w, std::stoull(arg("seed")), arg("root"));
    }
    if (cmd == "measure") {
      const std::string spans = args.count("spans") ? args["spans"] : "";
      return cmd_measure(w, arg("inputs"), std::stod(arg("seconds")), spans);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "spbench: " << e.what() << '\n';
    return 1;
  }
}
