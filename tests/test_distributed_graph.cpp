// Tests for block distribution and per-rank local views.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/distributed_graph.hpp"
#include "graph/generators.hpp"

namespace sp::graph {
namespace {

TEST(BlockDistribution, OwnerAndBeginConsistent) {
  const VertexId n = 103;
  const std::uint32_t p = 8;
  for (std::uint32_t r = 0; r < p; ++r) {
    for (VertexId v = block_begin(r, n, p); v < block_begin(r + 1, n, p); ++v) {
      EXPECT_EQ(block_owner(v, n, p), r);
    }
  }
  EXPECT_EQ(block_begin(0, n, p), 0u);
  EXPECT_EQ(block_begin(p, n, p), n);
}

TEST(BlockDistribution, NearEqualSizes) {
  const VertexId n = 1000;
  const std::uint32_t p = 7;
  VertexId min_size = n, max_size = 0;
  for (std::uint32_t r = 0; r < p; ++r) {
    VertexId size = block_begin(r + 1, n, p) - block_begin(r, n, p);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(LocalView, PartitionsAllVertices) {
  auto g = gen::delaunay(300, 2).graph;
  const std::uint32_t p = 4;
  VertexId covered = 0;
  for (std::uint32_t r = 0; r < p; ++r) {
    LocalView view(g, r, p);
    covered += view.num_local();
    EXPECT_EQ(view.rank(), r);
  }
  EXPECT_EQ(covered, g.num_vertices());
}

TEST(LocalView, GhostsAreExactlyNonOwnedNeighbors) {
  auto g = gen::grid2d(10, 10).graph;
  LocalView view(g, 1, 4);
  for (VertexId ghost : view.ghosts()) {
    EXPECT_FALSE(view.owns(ghost));
    EXPECT_NE(view.halo().ghost_index(ghost), kInvalidVertex);
  }
  // Every non-owned neighbour of an owned vertex appears in ghosts.
  for (VertexId local = 0; local < view.num_local(); ++local) {
    for (VertexId u : view.neighbors(local)) {
      if (!view.owns(u)) {
        EXPECT_NE(view.halo().ghost_index(u), kInvalidVertex);
      }
    }
  }
  EXPECT_EQ(view.halo().ghost_index(view.to_global(0)), kInvalidVertex);
}

TEST(LocalView, BoundaryLocalsHaveExternalEdges) {
  auto g = gen::grid2d(8, 8).graph;
  LocalView view(g, 0, 2);
  for (VertexId local : view.boundary_locals()) {
    bool external = false;
    for (VertexId u : view.neighbors(local)) external |= !view.owns(u);
    EXPECT_TRUE(external);
  }
}

TEST(LocalView, NeighborRanksSortedAndGrouped) {
  auto g = gen::delaunay(400, 8).graph;
  LocalView view(g, 2, 8);
  const auto& ranks = view.neighbor_ranks();
  for (std::size_t i = 1; i < ranks.size(); ++i) {
    EXPECT_LT(ranks[i - 1], ranks[i]);
  }
  // Each neighbour rank's send list holds, strictly ascending, exactly the
  // owned vertices adjacent to one of that rank's vertices.
  for (std::size_t k = 0; k < ranks.size(); ++k) {
    std::vector<VertexId> expected;
    for (VertexId local = 0; local < view.num_local(); ++local) {
      for (VertexId u : view.neighbors(local)) {
        if (!view.owns(u) && block_owner(u, g.num_vertices(), 8) == ranks[k]) {
          expected.push_back(local);
          break;
        }
      }
    }
    auto list = view.halo().send_list(k);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(std::vector<VertexId>(list.begin(), list.end()), expected);
  }
  for (VertexId ghost : view.ghosts()) {
    EXPECT_TRUE(std::binary_search(ranks.begin(), ranks.end(),
                                   block_owner(ghost, g.num_vertices(), 8)));
  }
}

TEST(LocalView, SingleRankOwnsEverything) {
  auto g = gen::cycle(50).graph;
  LocalView view(g, 0, 1);
  EXPECT_EQ(view.num_local(), 50u);
  EXPECT_TRUE(view.ghosts().empty());
  EXPECT_TRUE(view.boundary_locals().empty());
}

}  // namespace
}  // namespace sp::graph
