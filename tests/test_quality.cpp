// Tests for partition diagnostics (graph/quality).
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/quality.hpp"
#include "support/random.hpp"

namespace sp::graph {
namespace {

TEST(Quality, BipartitionBasics) {
  // Path 0-1-2-3 split in the middle.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  CsrGraph g = b.build();
  Bipartition part(4);
  part[2] = part[3] = 1;
  auto q = analyze_partition(g, part);
  EXPECT_EQ(q.edge_cut, 1);
  EXPECT_EQ(q.comm_volume, 2u);  // vertices 1 and 2 each see 1 remote part
  EXPECT_DOUBLE_EQ(q.imbalance, 0.0);
  ASSERT_EQ(q.parts.size(), 2u);
  EXPECT_EQ(q.parts[0].vertices, 2u);
  EXPECT_EQ(q.parts[0].boundary, 1u);
  EXPECT_EQ(q.parts[0].external_edges, 1);
  EXPECT_TRUE(q.all_parts_connected);
}

TEST(Quality, DetectsFragmentedParts) {
  // Path 0-1-2-3-4 with part 0 = {0, 4}: two components.
  GraphBuilder b(5);
  for (VertexId i = 0; i + 1 < 5; ++i) b.add_edge(i, i + 1);
  CsrGraph g = b.build();
  std::vector<std::uint32_t> part = {0, 1, 1, 1, 0};
  auto q = analyze_partition(g, part, 2);
  EXPECT_FALSE(q.all_parts_connected);
  EXPECT_EQ(q.parts[0].components, 2u);
  EXPECT_EQ(q.parts[1].components, 1u);
}

TEST(Quality, CommVolumeCountsDistinctParts) {
  // Star centre adjacent to 3 leaves in 3 different parts: volume from the
  // centre is 3, each leaf adds 1.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  CsrGraph g = b.build();
  std::vector<std::uint32_t> part = {0, 1, 2, 3};
  auto q = analyze_partition(g, part, 4);
  EXPECT_EQ(q.comm_volume, 3u + 3u);
  EXPECT_EQ(q.edge_cut, 3);
}

TEST(Quality, MatchesCutSizeOnRandomPartition) {
  auto g = graph::gen::delaunay(800, 1).graph;
  Bipartition part(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    part[v] = static_cast<std::uint8_t>(sp::hash64(v) & 1);
  }
  auto q = analyze_partition(g, part);
  EXPECT_EQ(q.edge_cut, cut_size(g, part));
}

}  // namespace
}  // namespace sp::graph
