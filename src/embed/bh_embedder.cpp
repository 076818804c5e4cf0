#include "embed/bh_embedder.hpp"

#include <cmath>

#include "coarsen/hierarchy.hpp"
#include "embed/force_model.hpp"
#include "geometry/box.hpp"
#include "geometry/quadtree.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace sp::embed {

using geom::Vec2;
using graph::CsrGraph;
using graph::VertexId;

void bh_smooth(const CsrGraph& g, std::vector<Vec2>& coords,
               std::uint32_t iterations, double theta, double repulsion_c,
               double initial_step) {
  const VertexId n = g.num_vertices();
  SP_ASSERT(coords.size() == n);
  if (n < 2) return;

  geom::Box box = geom::Box::of(coords);
  double area = std::max(box.width() * box.height(), 1e-12);
  ForceModel model;
  model.K = ForceModel::natural_length(area, n);
  model.C = repulsion_c;
  CoolingSchedule cooling;
  cooling.initial_step = initial_step * model.K;
  cooling.min_step = 1e-3 * model.K;

  std::vector<double> masses(n);
  for (VertexId v = 0; v < n; ++v) {
    masses[v] = static_cast<double>(g.vertex_weight(v));
  }

  std::vector<Vec2> next(n);
  for (std::uint32_t it = 0; it < iterations; ++it) {
    geom::QuadTree tree(coords, masses);
    double step = cooling.step_at(it);
    for (VertexId v = 0; v < n; ++v) {
      Vec2 force = tree.accumulate_with(
                       coords[v], static_cast<std::int64_t>(v), theta,
                       [&](const Vec2& delta, double mass) {
                         return model.repulsive(delta, mass);
                       }) *
                   masses[v];
      auto nbrs = g.neighbors(v);
      auto ws = g.edge_weights_of(v);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        force += model.attractive(coords[v], coords[nbrs[k]]) *
                 static_cast<double>(ws[k]);
      }
      next[v] = coords[v] + clipped_move(force, step);
    }
    coords.swap(next);
  }
}

std::vector<Vec2> bh_embed(const CsrGraph& g, const BhEmbedderOptions& opt) {
  const VertexId n = g.num_vertices();
  if (n == 0) return {};
  Rng rng(opt.seed);
  if (n == 1) return {Vec2{}};

  coarsen::HierarchyOptions hopt;
  hopt.coarsest_size = opt.coarsest_size;
  hopt.rounds_per_level = 1;  // gentle halving gives the smoothest prolongation
  hopt.seed = opt.seed ^ 0x5EEDull;
  coarsen::Hierarchy hierarchy = coarsen::Hierarchy::build(g, hopt);

  // Coarsest: random positions in the unit box, long anneal.
  const std::size_t coarsest = hierarchy.num_levels() - 1;
  std::vector<Vec2> coords(hierarchy.graph_at(coarsest).num_vertices());
  for (auto& p : coords) p = geom::vec2(rng.uniform(), rng.uniform());
  bh_smooth(hierarchy.graph_at(coarsest), coords, opt.coarsest_iterations,
            opt.theta, opt.repulsion_c, /*initial_step=*/1.0);

  // Prolong and smooth level by level.
  for (std::size_t level = coarsest; level > 0; --level) {
    const auto& map = hierarchy.level(level).fine_to_coarse;
    const CsrGraph& fine = hierarchy.graph_at(level - 1);
    std::vector<Vec2> fine_coords(fine.num_vertices());
    // Scale the layout up by 2x per level (vertex count doubles, area
    // should too) and place children near their parent with a small
    // random offset to break symmetry.
    geom::Box box = geom::Box::of(coords);
    double jitter_len =
        0.2 * ForceModel::natural_length(
                  std::max(box.width() * box.height(), 1e-12) * 2.0,
                  fine.num_vertices());
    for (VertexId v = 0; v < fine.num_vertices(); ++v) {
      Vec2 parent = coords[map[v]] * std::sqrt(2.0);
      fine_coords[v] =
          parent + geom::vec2(rng.uniform(-jitter_len, jitter_len),
                              rng.uniform(-jitter_len, jitter_len));
    }
    coords = std::move(fine_coords);
    bh_smooth(fine, coords, opt.smooth_iterations, opt.theta, opt.repulsion_c,
              /*initial_step=*/0.3);
  }

  // Normalise: centroid at the origin, RMS radius 1.
  Vec2 centroid{};
  for (const Vec2& p : coords) centroid += p;
  centroid /= static_cast<double>(n);
  double rms = 0.0;
  for (const Vec2& p : coords) rms += geom::distance2(p, centroid);
  rms = std::sqrt(rms / static_cast<double>(n));
  double inv = rms > 1e-300 ? 1.0 / rms : 1.0;
  for (Vec2& p : coords) p = (p - centroid) * inv;
  return coords;
}

}  // namespace sp::embed
