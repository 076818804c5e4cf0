// Gilbert-Miller-Teng geometric mesh partitioner ("geopart").
//
// Sequence per the paper [9,24]: stereographically lift the 2-D embedding
// to the unit sphere in R^3, compute an approximate centerpoint, apply a
// conformal map sending the centerpoint to the sphere centre, draw random
// great circles through the centre, and map each circle back to a
// circle-cut of the plane. The best of T tries wins. Balance is enforced
// by placing the separating plane at the weighted median of the
// great-circle coordinate (so the "great circle" may slide parallel to
// itself: the image in the plane is still a circle).
//
// Variants match the paper's notation:
//   G30  : 30 tries = 22 great circles over 2 centerpoints + 7 lines + 1
//          coordinate-axis median cut.
//   G7   : 7 tries = 5 great circles over 1 centerpoint + 2 lines.
//   G7-NL: G7 with no line separators (5 great circles, 1 centerpoint) —
//          the variant ScalaPart parallelizes (SP-PG7-NL), because line
//          separators need an eigenvector-style computation that does not
//          scale.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "partition/partitioner.hpp"

namespace sp::partition {

struct GeometricMeshOptions {
  std::uint32_t circles_per_centerpoint = 5;
  std::uint32_t num_centerpoints = 1;
  std::uint32_t num_lines = 2;
  bool axis_cut = false;  // one extra median cut along each best axis
  std::size_t centerpoint_sample = 800;
  std::uint64_t seed = 12345;
  /// Weight fraction placed on side 0 (0.5 = bisection). Recursive k-way
  /// partitioning with k not a power of two needs asymmetric splits.
  double split_fraction = 0.5;

  static GeometricMeshOptions g30() {
    GeometricMeshOptions opt;
    opt.circles_per_centerpoint = 11;
    opt.num_centerpoints = 2;
    opt.num_lines = 7;
    opt.axis_cut = true;
    return opt;
  }
  static GeometricMeshOptions g7() {
    GeometricMeshOptions opt;
    opt.circles_per_centerpoint = 5;
    opt.num_centerpoints = 1;
    opt.num_lines = 2;
    return opt;
  }
  static GeometricMeshOptions g7nl() {
    GeometricMeshOptions opt;
    opt.circles_per_centerpoint = 5;
    opt.num_centerpoints = 1;
    opt.num_lines = 0;
    return opt;
  }
};

struct GeometricMeshResult {
  graph::Bipartition part;
  graph::Weight cut = 0;
  /// Signed margin of each vertex from the winning separator (median-
  /// centred); feeds the strip extraction for FM refinement.
  std::vector<double> separator_distance;
  bool winner_is_line = false;
  std::uint32_t tries = 0;
};

/// Throws std::invalid_argument when `opt` allows no try at all
/// (circles_per_centerpoint * num_centerpoints + num_lines + axis_cut == 0).
GeometricMeshResult geometric_mesh_partition(const graph::CsrGraph& g,
                                             std::span<const geom::Vec2> coords,
                                             const GeometricMeshOptions& opt);

/// Convenience wrapper returning the common PartitionResult.
PartitionResult gmt_partition(const graph::CsrGraph& g,
                              std::span<const geom::Vec2> coords,
                              const GeometricMeshOptions& opt,
                              const std::string& method_name);

namespace detail {

/// Deterministic tiny tie-breaking noise in [-5e-10, 5e-10) added to every
/// separator value by the sequential and the parallel GMT (grids put many
/// vertices on the same line; without it the median split can be wildly
/// unbalanced).
double jitter(graph::VertexId v);

/// Weighted quantile threshold of the values s: the smallest value t with
/// W(s <= t) >= fraction * W(all), where W sums the weights `w` (empty
/// means unit weights; weights must be nonnegative). The largest value if
/// no t qualifies, 0 for empty input. Found by expected-linear selection;
/// the weight sums are integers compared as doubles, so the result equals
/// a scan of the sorted values.
double weighted_quantile(std::span<const double> s,
                         std::span<const graph::Weight> w, double fraction);

}  // namespace detail

}  // namespace sp::partition
