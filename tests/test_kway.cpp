// Tests for recursive k-way partitioning.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/kway.hpp"
#include "graph/generators.hpp"
#include "graph/quality.hpp"

namespace sp::core {
namespace {

using graph::VertexId;

class KwayTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KwayTest, BalancedValidAssignmentWithCoords) {
  auto g = graph::gen::delaunay(3000, 1);
  KwayOptions opt;
  opt.parts = GetParam();
  auto r = kway_partition_with_coords(g.graph, g.coords, opt);
  ASSERT_EQ(r.part.size(), g.graph.num_vertices());
  std::vector<std::size_t> counts(opt.parts, 0);
  for (auto p : r.part) {
    ASSERT_LT(p, opt.parts);
    ++counts[p];
  }
  for (auto c : counts) EXPECT_GT(c, 0u);
  // Recursive bisection compounds epsilon per level: allow log2(k) stack.
  double levels = std::ceil(std::log2(static_cast<double>(opt.parts)));
  EXPECT_LE(r.imbalance, levels * 0.05 + 0.02) << "k=" << opt.parts;
  EXPECT_EQ(r.total_cut, kway_cut(g.graph, r.part));
}

INSTANTIATE_TEST_SUITE_P(PartCounts, KwayTest,
                         ::testing::Values(2u, 3u, 4u, 7u, 16u));

TEST(Kway, TwoWayMatchesBisectionQuality) {
  auto g = graph::gen::grid2d(40, 40);
  KwayOptions opt;
  opt.parts = 2;
  auto r = kway_partition_with_coords(g.graph, g.coords, opt);
  // Straight cut of a 40x40 grid is 40; geometric + strip FM should land
  // within a small factor.
  EXPECT_LE(r.total_cut, 120);
}

TEST(Kway, CutGrowsSublinearlyWithParts) {
  auto g = graph::gen::delaunay(4000, 2);
  KwayOptions opt;
  opt.parts = 2;
  auto two = kway_partition_with_coords(g.graph, g.coords, opt);
  opt.parts = 8;
  auto eight = kway_partition_with_coords(g.graph, g.coords, opt);
  EXPECT_GT(eight.total_cut, two.total_cut);
  EXPECT_LT(eight.total_cut, 8 * two.total_cut);
}

TEST(Kway, EmbeddingPathWorksWithoutCoords) {
  auto g = graph::gen::grid3d(10, 10, 10).graph;  // no 2-D geometry
  KwayOptions opt;
  opt.parts = 4;
  opt.nranks = 8;
  auto r = kway_partition(g, opt);
  EXPECT_EQ(r.embedding.size(), g.num_vertices());
  EXPECT_LE(r.imbalance, 0.15);
  // Random 4-way assignment cuts ~3/4 of edges (~2000); structure-aware
  // partitioning should be far below.
  EXPECT_LT(r.total_cut, 900);
}

TEST(Kway, QualityAnalysisConsistent) {
  auto g = graph::gen::delaunay(2000, 3);
  KwayOptions opt;
  opt.parts = 4;
  auto r = kway_partition_with_coords(g.graph, g.coords, opt);
  auto q = graph::analyze_partition(g.graph, r.part, opt.parts);
  EXPECT_EQ(q.edge_cut, r.total_cut);
  EXPECT_NEAR(q.imbalance, r.imbalance, 1e-12);
  // comm volume counts distinct remote parts per vertex: bounded below by
  // boundary vertex count and above by cut * 2.
  std::uint64_t boundary_total = 0;
  for (const auto& p : q.parts) boundary_total += p.boundary;
  EXPECT_GE(q.comm_volume, boundary_total);
  EXPECT_LE(q.comm_volume, static_cast<std::uint64_t>(2 * q.edge_cut));
}

TEST(Kway, SinglePartTrivial) {
  auto g = graph::gen::cycle(32);
  KwayOptions opt;
  opt.parts = 1;
  auto r = kway_partition_with_coords(g.graph, g.coords, opt);
  EXPECT_EQ(r.total_cut, 0);
  for (auto p : r.part) EXPECT_EQ(p, 0u);
}

TEST(Kway, ZeroTryGmtOptionsThrow) {
  // GMT options that allow no separator are rejected before any cut, with
  // strip refinement off and on.
  auto g = graph::gen::delaunay(500, 4);
  KwayOptions opt;
  opt.parts = 4;
  opt.gmt.num_centerpoints = 0;
  opt.gmt.num_lines = 0;
  opt.gmt.axis_cut = false;
  for (bool strip : {false, true}) {
    opt.strip_refine = strip;
    EXPECT_THROW(kway_partition_with_coords(g.graph, g.coords, opt),
                 std::invalid_argument)
        << "strip_refine " << strip;
  }
}

}  // namespace
}  // namespace sp::core
