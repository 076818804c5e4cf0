#include "workloads.hpp"

#include <sched.h>

#include <cstdio>
#include <fstream>

#include "analysis/determinism.hpp"
#include "graph/graph_io.hpp"

namespace spbench {

namespace {

// Why each workload exists is recorded in perfbench/README.md.
const std::vector<Workload>& workloads() {
  using sp::exec::Backend;
  static const std::vector<Workload> all = {
      {"embed-p16", "embed",
       {"delaunay_n23", "delaunay_n24", "hugebubbles-00020"}, 2, 0.0004, 16,
       Backend::kFiber, false},
      {"threads-p16", "embed",
       {"delaunay_n23", "delaunay_n24", "hugebubbles-00020"}, 2, 0.0004, 16,
       Backend::kThreads, false},
      {"coords-kway", "coords",
       {"delaunay_n24", "hugebubbles-00020", "G3_circuit"}, 2, 0.0025, 16,
       Backend::kFiber, true},
  };
  return all;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint32_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::uint32_t>(std::max(CPU_COUNT(&set), 1));
}

sp::core::ScalaPartOptions scalapart_options(const Workload& w) {
  sp::core::ScalaPartOptions opt;
  opt.nranks = w.nranks;
  opt.backend = w.backend;
  if (w.backend == sp::exec::Backend::kThreads) opt.threads = online_cpus();
  return opt;
}

sp::core::KwayOptions kway_options(const Workload& w) {
  sp::core::KwayOptions opt;
  opt.parts = kKwayParts;
  opt.nranks = w.nranks;
  return opt;
}

Input load_input(const InputFile& file) {
  Input in;
  in.name = file.name;
  in.graph = sp::graph::io::read_metis_file(file.graph_path);
  if (!file.coords_path.empty()) {
    std::ifstream is(file.coords_path);
    if (!is) throw std::runtime_error("cannot open " + file.coords_path);
    in.coords = sp::graph::io::read_coords(is);
    if (in.coords.size() != in.graph.num_vertices()) {
      throw std::runtime_error(file.coords_path + ": " +
                               std::to_string(in.coords.size()) +
                               " coordinates for " +
                               std::to_string(in.graph.num_vertices()) +
                               " vertices");
    }
  }
  return in;
}

void Tally::fail(const std::string& what) {
  ++failed;
  // Keep the output bounded when every pass fails the same way.
  if (errors.size() < 20) errors.push_back(what);
}

std::string fingerprint_hex(const void* data, std::size_t bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    sp::analysis::fingerprint_bytes(data, bytes)));
  return buf;
}

}  // namespace spbench
