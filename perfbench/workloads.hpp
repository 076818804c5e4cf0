// The benchmark's workloads and the pieces the measuring run and the traced
// replay share: input files, loaded inputs, per-call records and the
// options each workload passes to the public entry points.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kway.hpp"
#include "core/scalapart.hpp"
#include "geometry/vec.hpp"
#include "graph/csr_graph.hpp"

namespace spbench {

struct Workload {
  std::string name;
  /// Inputs are generated once per (input_set, seed); workloads with the
  /// same input_set partition the same files.
  std::string input_set;
  std::vector<std::string> graphs;  // core::paper_suite() names
  /// Each graph is generated this many times, from different seeds, so a
  /// run averages over more than one draw of the generators.
  std::uint32_t instances = 1;
  double scale = 0.0;
  std::uint32_t nranks = 16;
  sp::exec::Backend backend = sp::exec::Backend::kFiber;
  /// false: scalapart_partition. true: sp_pg7nl_partition and
  /// kway_partition_with_coords on the generators' own coordinates.
  bool with_coords = false;
};

/// Parts of the k-way call on the coordinate workload.
inline constexpr std::uint32_t kKwayParts = 16;

/// Throws std::invalid_argument for an unknown name.
const Workload& find_workload(const std::string& name);

/// Online CPUs of this process (the threads backend's worker count).
std::uint32_t online_cpus();

/// ScalaPart options at their defaults except P, backend and threads.
sp::core::ScalaPartOptions scalapart_options(const Workload& w);
sp::core::KwayOptions kway_options(const Workload& w);

/// One generated input as listed in the input directory's inputs.tsv.
struct InputFile {
  std::string name;
  std::string graph_path;
  std::string coords_path;  // empty when the workload has no coordinates
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  std::string checksum;  // fingerprint of the files' bytes, hex
};

struct Input {
  std::string name;
  sp::graph::CsrGraph graph;
  std::vector<sp::geom::Vec2> coords;
};

/// Loads one input the way a user would: read_metis_file, plus
/// read_coords when the input has coordinates.
Input load_input(const InputFile& file);

/// What the outside checks saw of one call. Deterministic for a given
/// input and workload.
struct CallRecord {
  std::string input;
  std::string entry;  // "scalapart", "pg7nl" or "kway"
  long long cut = 0;
  double imbalance = 0.0;
  double modeled_s = 0.0;  // 0 for kway, which has no modeled clock
  std::string part_fp;
};

/// A call that returned a wrong result.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Calls attempted and failed, with a message per failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  void fail(const std::string& what);
};

/// Hex digest of a byte range: analysis::fingerprint_bytes, so a
/// bipartition's digest is the part_fp of the BENCH files.
std::string fingerprint_hex(const void* data, std::size_t bytes);

template <class T>
std::string part_fp(const std::vector<T>& part) {
  return fingerprint_hex(part.data(), part.size() * sizeof(T));
}

}  // namespace spbench
