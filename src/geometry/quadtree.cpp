#include "geometry/quadtree.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "geometry/box.hpp"
#include "support/assert.hpp"

namespace sp::geom {

/// Recursive top-down build that emits nodes in pre-order.
struct QuadTree::Builder {
  QuadTree& tree;
  std::span<const Vec2> points;
  std::span<const double> masses;
  std::uint32_t leaf_capacity;
  std::vector<std::uint32_t> order;  // input indices, permuted into cells

  double mass_of(std::uint32_t p) const {
    return masses.empty() ? 1.0 : masses[p];
  }

  void build(const Box& box, std::uint32_t begin, std::uint32_t end,
             std::uint32_t depth);
};

QuadTree::QuadTree(std::span<const Vec2> points, std::span<const double> masses,
                   std::uint32_t leaf_capacity)
    : num_points_(points.size()) {
  SP_ASSERT(masses.empty() || masses.size() == points.size());
  if (points.empty()) return;
  Builder builder{*this, points, masses, std::max(1u, leaf_capacity),
                  std::vector<std::uint32_t>(points.size())};
  std::iota(builder.order.begin(), builder.order.end(), 0u);
  points_.reserve(points.size());
  builder.build(Box::of(points).inflated(1e-9), 0,
                static_cast<std::uint32_t>(points.size()), 0);
}

void QuadTree::Builder::build(const Box& box, std::uint32_t begin,
                              std::uint32_t end, std::uint32_t depth) {
  double mass = 0.0;
  Vec2 com{};
  for (std::uint32_t i = begin; i < end; ++i) {
    const double m = mass_of(order[i]);
    mass += m;
    com += points[order[i]] * m;
  }
  // Empty and zero-mass cells would be skipped by every traversal.
  if (mass <= 0.0) return;

  const auto self = static_cast<std::uint32_t>(tree.nodes_.size());
  Node& node = tree.nodes_.emplace_back();
  node.center_of_mass = com / mass;
  node.mass = mass;
  const double extent = std::max(box.width(), box.height());
  node.extent2 = extent * extent;

  if (end - begin <= leaf_capacity || depth >= kMaxDepth) {
    node.point_begin = static_cast<std::uint32_t>(tree.points_.size());
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t p = order[i];
      tree.points_.push_back({points[p], mass_of(p), p});
    }
    node.point_end = static_cast<std::uint32_t>(tree.points_.size());
    node.skip = self + 1;
    return;
  }

  const Vec2 mid = box.center();
  // Partition the index range into the 4 quadrants (order: SW, SE, NW, NE)
  // with two nested splits: first by y, then by x.
  auto base = order.begin();
  auto y_split = std::partition(base + begin, base + end, [&](std::uint32_t p) {
    return points[p][1] < mid[1];
  });
  auto x_split_lo =
      std::partition(base + begin, y_split,
                     [&](std::uint32_t p) { return points[p][0] < mid[0]; });
  auto x_split_hi =
      std::partition(y_split, base + end,
                     [&](std::uint32_t p) { return points[p][0] < mid[0]; });
  const std::array<std::uint32_t, 5> cuts = {
      begin, static_cast<std::uint32_t>(x_split_lo - base),
      static_cast<std::uint32_t>(y_split - base),
      static_cast<std::uint32_t>(x_split_hi - base), end};

  // Children in NE, NW, SE, SW order (q = 3..0), each directly followed by
  // its own subtree.
  for (int q = 3; q >= 0; --q) {
    Box child;
    const bool west = q % 2 == 0;
    const bool south = q < 2;
    child.lo = vec2(west ? box.lo[0] : mid[0], south ? box.lo[1] : mid[1]);
    child.hi = vec2(west ? mid[0] : box.hi[0], south ? mid[1] : box.hi[1]);
    build(child, cuts[q], cuts[q + 1], depth + 1);
  }
  tree.nodes_[self].skip = static_cast<std::uint32_t>(tree.nodes_.size());
}

double QuadTree::total_mass() const {
  return nodes_.empty() ? 0.0 : nodes_[0].mass;
}

}  // namespace sp::geom
