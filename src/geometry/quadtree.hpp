// Barnes-Hut quadtree over weighted 2-D points.
//
// Approximates all-pairs repulsive forces in O(n log n), for the sequential
// force-directed embedder (the "Hu-style" baseline that stands in for the
// paper's Mathematica coordinates) and for the lattice embedder's
// intra-cell pass. Nodes store aggregate mass and centre of mass; traversal
// opens a node when cell_size / distance reaches theta, tested on squared
// values so that no square root is taken.
//
// Layout: one flat node array in traversal pre-order. Each node is followed
// by its subtree, children in NE, NW, SE, SW order, and carries a skip link
// to the first node past that subtree, so a traversal is a forward loop:
// step to the next node to open one, follow the skip link to close it. Leaf
// points are copied contiguously, each with its original index. Subtrees of
// zero mass contribute nothing and are never emitted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec.hpp"

namespace sp::geom {

class QuadTree {
 public:
  /// Depth cap: guards against coincident points that can never be
  /// separated. A node this deep is a leaf whatever its point count.
  static constexpr std::uint32_t kMaxDepth = 48;

  /// Builds over `points` with per-point `masses` (empty => unit masses).
  /// leaf_capacity points may share a leaf before it splits.
  QuadTree(std::span<const Vec2> points, std::span<const double> masses,
           std::uint32_t leaf_capacity = 8);

  /// Sum of kernel(delta, mass) over an approximation of all points,
  /// opening nodes with extent^2 >= theta^2 * distance^2. `skip` is the
  /// index of a point to exclude (the force target itself), or -1.
  ///
  /// kernel(delta, mass) must return the force contribution for an
  /// aggregate of `mass` located at displacement `delta` from the query
  /// (delta = query - source). The kernel is inlined into the loop.
  template <class Kernel>
  Vec2 accumulate_with(const Vec2& query, std::int64_t skip, double theta,
                       Kernel&& kernel) const {
    Vec2 total{};
    const double theta2 = theta * theta;
    const auto count = static_cast<std::uint32_t>(nodes_.size());
    std::uint32_t i = 0;
    while (i < count) {
      const Node& node = nodes_[i];
      if (node.point_begin == node.point_end) {
        if (node.extent2 >= theta2 * distance2(query, node.center_of_mass)) {
          ++i;  // open: the first child follows its parent
          continue;
        }
        // Far enough: treat the whole subtree as one aggregate. The skipped
        // point's contribution is negligible at this distance by the theta
        // criterion, matching standard Barnes-Hut practice.
        total += kernel(query - node.center_of_mass, node.mass);
      } else {
        for (std::uint32_t k = node.point_begin; k < node.point_end; ++k) {
          const LeafPoint& p = points_[k];
          if (p.index == skip) continue;
          total += kernel(query - p.pos, p.mass);
        }
      }
      i = node.skip;
    }
    return total;
  }

  std::size_t num_nodes() const { return nodes_.size(); }
  /// Input points, including any whose subtree was pruned for zero mass.
  std::size_t num_points() const { return num_points_; }

  /// Total mass under the root (tests: must equal the input mass sum).
  double total_mass() const;

 private:
  struct Node {
    Vec2 center_of_mass{};
    double mass = 0.0;
    double extent2 = 0.0;           // max(width, height)^2 of the node's cell
    std::uint32_t skip = 0;         // first node past this subtree
    std::uint32_t point_begin = 0;  // leaf: range into points_;
    std::uint32_t point_end = 0;    // empty for internal nodes
  };

  struct LeafPoint {
    Vec2 pos{};
    double mass = 0.0;
    std::int64_t index = 0;  // position in the input span
  };

  struct Builder;

  std::vector<Node> nodes_;
  std::vector<LeafPoint> points_;
  std::size_t num_points_ = 0;
};

}  // namespace sp::geom
