#include "partition/geometric_mesh.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geometry/sphere.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace sp::partition {

using geom::Vec2;
using geom::Vec3;
using graph::Bipartition;
using graph::CsrGraph;
using graph::VertexId;
using graph::Weight;

namespace detail {

double jitter(VertexId v) {
  return (static_cast<double>(hash64(v) >> 11) * 0x1.0p-53 - 0.5) * 1e-9;
}

double weighted_quantile(std::span<const double> s, std::span<const Weight> w,
                         double fraction) {
  if (s.empty()) return 0.0;
  struct Item {
    double s;
    Weight w;
  };
  std::vector<Item> items(s.size());
  Weight total = 0;
  double largest = s[0];
  for (std::size_t i = 0; i < s.size(); ++i) {
    items[i] = {s[i], w.empty() ? Weight{1} : w[i]};
    total += items[i].w;
    largest = std::max(largest, s[i]);
  }
  const double target = fraction * static_cast<double>(total);
  if (!(static_cast<double>(total) >= target)) return largest;

  // Three-way selection on [lo, hi). Invariants: `below` is the weight of
  // the values left of the range, below + W(range) reaches the target, and
  // no value left of the range does.
  std::size_t lo = 0;
  std::size_t hi = items.size();
  Weight below = 0;
  for (;;) {
    const double a = items[lo].s;
    const double b = items[lo + (hi - lo) / 2].s;
    const double c = items[hi - 1].s;
    const double pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));
    Weight w_lt = 0;
    Weight w_eq = 0;
    std::size_t n_lt = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const bool lt = items[i].s < pivot;
      const bool eq = items[i].s == pivot;
      w_lt += lt ? items[i].w : 0;
      w_eq += eq ? items[i].w : 0;
      n_lt += lt ? 1 : 0;
    }
    if (n_lt > 0 && static_cast<double>(below + w_lt) >= target) {
      std::size_t k = lo;  // keep the values below the pivot
      for (std::size_t i = lo; i < hi; ++i) {
        items[k] = items[i];
        k += items[i].s < pivot ? 1 : 0;
      }
      hi = k;
    } else if (static_cast<double>(below + w_lt + w_eq) >= target) {
      return pivot;
    } else {
      below += w_lt + w_eq;
      std::size_t k = lo;  // keep the values above the pivot
      for (std::size_t i = lo; i < hi; ++i) {
        items[k] = items[i];
        k += items[i].s > pivot ? 1 : 0;
      }
      hi = k;
    }
  }
}

}  // namespace detail

GeometricMeshResult geometric_mesh_partition(const CsrGraph& g,
                                             std::span<const Vec2> coords,
                                             const GeometricMeshOptions& opt) {
  const std::uint64_t tries =
      std::uint64_t{opt.circles_per_centerpoint} * opt.num_centerpoints +
      opt.num_lines + (opt.axis_cut ? 1 : 0);
  if (tries == 0) {
    throw std::invalid_argument(
        "geometric_mesh_partition: no separator to try "
        "(circles_per_centerpoint * num_centerpoints + num_lines + axis_cut "
        "is 0)");
  }
  const VertexId n = g.num_vertices();
  SP_ASSERT(coords.size() == n);
  GeometricMeshResult best;
  best.cut = std::numeric_limits<Weight>::max();
  if (n == 0) {
    best.cut = 0;
    return best;
  }

  Rng rng(opt.seed);

  // Normalize: centre at the centroid and scale to unit RMS radius so the
  // stereographic lift spreads points over the sphere instead of crowding
  // one pole.
  Vec2 centroid{};
  for (const Vec2& p : coords) centroid += p;
  centroid /= static_cast<double>(n);
  double rms = 0.0;
  for (const Vec2& p : coords) rms += geom::distance2(p, centroid);
  rms = std::sqrt(rms / static_cast<double>(n));
  double inv_scale = rms > 1e-300 ? 1.0 / rms : 1.0;

  std::vector<Vec3> lifted(n);
  for (VertexId v = 0; v < n; ++v) {
    lifted[v] = geom::stereo_up((coords[v] - centroid) * inv_scale);
  }

  auto weights = std::span<const Weight>(g.vertex_weights());
  std::vector<double> jitter(n);
  for (VertexId v = 0; v < n; ++v) jitter[v] = detail::jitter(v);
  std::vector<double> s(n);
  Bipartition trial(n);

  auto consider = [&](std::span<const double> values, bool is_line) {
    double threshold =
        detail::weighted_quantile(values, weights, opt.split_fraction);
    for (VertexId v = 0; v < n; ++v) trial[v] = values[v] > threshold ? 1 : 0;
    Weight cut = graph::cut_size(g, trial);
    ++best.tries;
    if (cut < best.cut) {
      best.cut = cut;
      best.winner_is_line = is_line;
      best.part = trial;
      best.separator_distance.resize(n);
      for (VertexId v = 0; v < n; ++v) {
        best.separator_distance[v] = values[v] - threshold;
      }
    }
  };

  // Great-circle separators, opt.num_centerpoints independent conformal
  // centrings.
  for (std::uint32_t c = 0; c < opt.num_centerpoints; ++c) {
    Vec3 cp = geom::approximate_centerpoint(lifted, rng, opt.centerpoint_sample);
    // Guard: the iterated-Radon approximation can land outside the ball on
    // adversarial inputs; pull it inside.
    if (cp.norm() >= 0.999) cp = cp * (0.999 / cp.norm());
    geom::ConformalMap map(cp);
    std::vector<Vec3> mapped(n);
    for (VertexId v = 0; v < n; ++v) mapped[v] = map.apply(lifted[v]);

    for (std::uint32_t t = 0; t < opt.circles_per_centerpoint; ++t) {
      Vec3 u = geom::random_unit_vector(rng);
      for (VertexId v = 0; v < n; ++v) s[v] = u.dot(mapped[v]) + jitter[v];
      consider(s, /*is_line=*/false);
    }
  }

  // Line separators: random directions in the plane, median split.
  for (std::uint32_t t = 0; t < opt.num_lines; ++t) {
    double angle = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    Vec2 dir = geom::vec2(std::cos(angle), std::sin(angle));
    for (VertexId v = 0; v < n; ++v) s[v] = dir.dot(coords[v]) + jitter[v];
    consider(s, /*is_line=*/true);
  }

  // Optional axis-aligned median cut (cheap extra candidate in G30).
  if (opt.axis_cut) {
    for (VertexId v = 0; v < n; ++v) s[v] = coords[v][0] + jitter[v];
    consider(s, /*is_line=*/true);
  }

  return best;
}

PartitionResult gmt_partition(const CsrGraph& g, std::span<const Vec2> coords,
                              const GeometricMeshOptions& opt,
                              const std::string& method_name) {
  WallTimer timer;
  GeometricMeshResult r = geometric_mesh_partition(g, coords, opt);
  PartitionResult result;
  result.part = std::move(r.part);
  result.report = evaluate(g, result.part);
  result.seconds = timer.seconds();
  result.method = method_name;
  return result;
}

}  // namespace sp::partition
