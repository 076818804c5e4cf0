// Tests for the CSR graph container and builder.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "support/random.hpp"

namespace sp::graph {
namespace {

CsrGraph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  return b.build();
}

TEST(CsrGraph, EmptyGraph) {
  CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(CsrGraph, TriangleBasics) {
  CsrGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.is_symmetric());
  g.validate();
}

TEST(CsrGraph, SelfLoopsDropped) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 1);
  CsrGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(CsrGraph, DuplicateEdgesMergeWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 0, 3);  // same undirected edge, reversed orientation
  CsrGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge_weights_of(0)[0], 5);
  EXPECT_EQ(g.edge_weights_of(1)[0], 5);
  EXPECT_EQ(g.total_edge_weight(), 5);
}

TEST(CsrGraph, VertexWeights) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.set_vertex_weight(0, 4);
  b.set_vertex_weight(2, 7);
  CsrGraph g = b.build();
  EXPECT_EQ(g.vertex_weight(0), 4);
  EXPECT_EQ(g.vertex_weight(1), 1);
  EXPECT_EQ(g.vertex_weight(2), 7);
  EXPECT_EQ(g.total_vertex_weight(), 12);
}

TEST(CsrGraph, NeighborsSortedAndComplete) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  CsrGraph g = b.build();
  auto nbrs = g.neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 3u);
  EXPECT_EQ(nbrs[2], 4u);
}

TEST(CsrGraph, DegreeStats) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  CsrGraph g = b.build();
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 6.0 / 4.0);
}

TEST(CsrGraph, FromEdges) {
  std::vector<std::pair<VertexId, VertexId>> edges = {{0, 1}, {1, 2}};
  CsrGraph g = from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 2u);
  g.validate();
}

TEST(CsrGraph, InducedSubgraphKeepsInternalEdges) {
  // Path 0-1-2-3 plus chord 0-2; take {0, 1, 2}.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 2, 5);
  CsrGraph g = b.build();
  std::vector<VertexId> keep = {0, 1, 2};
  std::vector<VertexId> map;
  CsrGraph sub = induced_subgraph(g, keep, &map);
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 3u);  // 0-1, 1-2, 0-2
  EXPECT_EQ(map[3], kInvalidVertex);
  EXPECT_EQ(map[0], 0u);
  sub.validate();
  // Chord weight preserved.
  bool found = false;
  auto nbrs = sub.neighbors(0);
  auto ws = sub.edge_weights_of(0);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k] == 2) {
      EXPECT_EQ(ws[k], 5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CsrGraph, InducedSubgraphPreservesVertexWeights) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.set_vertex_weight(1, 9);
  CsrGraph g = b.build();
  std::vector<VertexId> keep = {1, 2};
  CsrGraph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.vertex_weight(0), 9);
}


// The GraphBuilder formulation induced_subgraph must reproduce array for
// array: each edge added once from its lower new endpoint's row.
CsrGraph induced_reference(const CsrGraph& g,
                           std::span<const VertexId> vertices) {
  std::vector<VertexId> map(g.num_vertices(), kInvalidVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    map[vertices[i]] = static_cast<VertexId>(i);
  }
  GraphBuilder builder(static_cast<VertexId>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const auto u = static_cast<VertexId>(i);
    builder.set_vertex_weight(u, g.vertex_weight(vertices[i]));
    auto nbrs = g.neighbors(vertices[i]);
    auto ws = g.edge_weights_of(vertices[i]);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const VertexId v = map[nbrs[k]];
      if (v != kInvalidVertex && u < v) builder.add_edge(u, v, ws[k]);
    }
  }
  return builder.build();
}

void expect_same_arrays(const CsrGraph& got, const CsrGraph& want) {
  EXPECT_EQ(got.xadj(), want.xadj());
  EXPECT_EQ(got.adjncy(), want.adjncy());
  EXPECT_EQ(got.vertex_weights(), want.vertex_weights());
  EXPECT_EQ(got.edge_weights(), want.edge_weights());
}

std::vector<VertexId> shuffled_subset(VertexId n, std::size_t size, Rng& rng) {
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  for (std::size_t i = 0; i < size; ++i) {
    std::swap(all[i], all[i + rng.below(n - i)]);
  }
  all.resize(size);
  return all;
}

TEST(CsrGraph, InducedSubgraphMatchesBuilderOnShuffledSubsets) {
  const CsrGraph g = gen::delaunay(2000, 3).graph;
  Rng rng(17);
  for (std::size_t size : {0u, 1u, 2u, 37u, 500u, 1000u, 1999u, 2000u}) {
    for (int draw = 0; draw < 3; ++draw) {
      SCOPED_TRACE("size " + std::to_string(size));
      const auto vertices = shuffled_subset(g.num_vertices(), size, rng);
      std::vector<VertexId> map;
      const CsrGraph sub = induced_subgraph(g, vertices, &map);
      expect_same_arrays(sub, induced_reference(g, vertices));
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        EXPECT_EQ(map[vertices[i]], i);
      }
    }
  }
}

TEST(CsrGraph, InducedSubgraphMatchesBuilderOnRawArrays) {
  // Raw CSR arrays no builder would produce: row 0 lists neighbour 2 twice
  // (weights 4 and 5), edge {0,1} weighs 3 in row 0 but 7 in row 1, arc
  // 3->1 has no reverse, and row 4 holds a self loop. Vertex weights vary.
  const CsrGraph g({0, 4, 6, 8, 10, 13},
                   {2, 1, 2, 4, 0, 2, 0, 1, 1, 4, 4, 3, 0}, {2, 3, 5, 7, 11},
                   {4, 3, 5, 1, 7, 2, 9, 2, 8, 1, 3, 1, 1});
  for (const std::vector<VertexId>& vertices :
       {std::vector<VertexId>{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0},
        {2, 0, 4, 1, 3}, {1, 3, 0}, {3, 1}, {0, 2}, {2}}) {
    expect_same_arrays(induced_subgraph(g, vertices),
                       induced_reference(g, vertices));
  }
}

}  // namespace
}  // namespace sp::graph
