// Tests for the Gilbert-Miller-Teng geometric mesh partitioner.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/generators.hpp"
#include "partition/geometric_mesh.hpp"
#include "partition/rcb.hpp"
#include "support/random.hpp"

namespace sp::partition {
namespace {

using graph::VertexId;
using graph::Weight;

TEST(GeometricMesh, BalancedCutOnDelaunay) {
  auto g = graph::gen::delaunay(3000, 1);
  auto r = geometric_mesh_partition(g.graph, g.coords,
                                    GeometricMeshOptions::g7nl());
  EXPECT_GT(r.cut, 0);
  graph::Bipartition part = r.part;
  EXPECT_LE(imbalance(g.graph, part), 0.03);
  EXPECT_EQ(cut_size(g.graph, part), r.cut);
  EXPECT_EQ(r.tries, 5u);
}

TEST(GeometricMesh, VariantTryCounts) {
  auto g = graph::gen::delaunay(500, 2);
  auto g30 = geometric_mesh_partition(g.graph, g.coords,
                                      GeometricMeshOptions::g30());
  EXPECT_EQ(g30.tries, 2u * 11 + 7 + 1);
  auto g7 = geometric_mesh_partition(g.graph, g.coords,
                                     GeometricMeshOptions::g7());
  EXPECT_EQ(g7.tries, 7u);
}

TEST(GeometricMesh, MoreTriesNeverHurt) {
  auto g = graph::gen::delaunay(2000, 3);
  GeometricMeshOptions few = GeometricMeshOptions::g7nl();
  few.seed = 9;
  GeometricMeshOptions many = few;
  many.circles_per_centerpoint = 30;
  auto a = geometric_mesh_partition(g.graph, g.coords, few);
  auto b = geometric_mesh_partition(g.graph, g.coords, many);
  // Same seed stream: the first 5 circles coincide, so 30 tries can only
  // match or improve.
  EXPECT_LE(b.cut, a.cut);
}

TEST(GeometricMesh, SeparatorDistanceSignsMatchSides) {
  auto g = graph::gen::delaunay(1000, 4);
  auto r = geometric_mesh_partition(g.graph, g.coords,
                                    GeometricMeshOptions::g7nl());
  ASSERT_EQ(r.separator_distance.size(), g.graph.num_vertices());
  for (VertexId v = 0; v < g.graph.num_vertices(); ++v) {
    EXPECT_EQ(r.part[v] == 1, r.separator_distance[v] > 0.0);
  }
}

TEST(GeometricMesh, BeatsRcbOnEllipticalMesh) {
  // A long thin trace: RCB's axis cut is forced through the middle, while
  // circle separators can follow the geometry. GMT should usually win;
  // compare on aggregate over seeds to avoid flakiness.
  auto g = graph::gen::trace(4000, 16.0, 5);
  double gmt_total = 0, rcb_total = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    GeometricMeshOptions opt = GeometricMeshOptions::g30();
    opt.seed = seed * 101 + 7;
    gmt_total += static_cast<double>(
        geometric_mesh_partition(g.graph, g.coords, opt).cut);
    rcb_total +=
        static_cast<double>(rcb_partition(g.graph, g.coords).report.cut);
  }
  EXPECT_LE(gmt_total, rcb_total * 1.15);
}

TEST(GeometricMesh, GridWithUniformCoordsStillBalanced) {
  auto g = graph::gen::grid2d(40, 40);
  auto r = geometric_mesh_partition(g.graph, g.coords,
                                    GeometricMeshOptions::g7nl());
  graph::Bipartition part = r.part;
  EXPECT_LE(imbalance(g.graph, part), 0.03);
}

TEST(GeometricMesh, DegenerateInputs) {
  // All-coincident coordinates: must not crash, still balanced via jitter.
  auto g = graph::gen::cycle(64);
  std::vector<geom::Vec2> same(64, geom::vec2(1.0, 1.0));
  auto r = geometric_mesh_partition(g.graph, same,
                                    GeometricMeshOptions::g7nl());
  graph::Bipartition part = r.part;
  EXPECT_LE(imbalance(g.graph, part), 0.10);

  graph::CsrGraph empty;
  auto r2 = geometric_mesh_partition(empty, {}, GeometricMeshOptions::g7nl());
  EXPECT_EQ(r2.cut, 0);
}

TEST(GeometricMesh, DeterministicForSeed) {
  auto g = graph::gen::delaunay(800, 6);
  GeometricMeshOptions opt = GeometricMeshOptions::g7nl();
  opt.seed = 1234;
  auto a = geometric_mesh_partition(g.graph, g.coords, opt);
  auto b = geometric_mesh_partition(g.graph, g.coords, opt);
  EXPECT_EQ(a.cut, b.cut);
  EXPECT_EQ(a.part.side, b.part.side);
}

TEST(GeometricMesh, WrapperReportsMethodName) {
  auto g = graph::gen::delaunay(400, 7);
  auto r = gmt_partition(g.graph, g.coords, GeometricMeshOptions::g30(), "G30");
  EXPECT_EQ(r.method, "G30");
  EXPECT_EQ(r.report.cut, cut_size(g.graph, r.part));
}

}  // namespace
}  // namespace sp::partition

// -- Asymmetric splits (k-way support) ---------------------------------------
// Placed in its own TU section: verifies GeometricMeshOptions::split_fraction.
namespace sp::partition {
namespace {

TEST(GeometricMesh, AsymmetricSplitFraction) {
  auto g = sp::graph::gen::delaunay(3000, 11);
  GeometricMeshOptions opt = GeometricMeshOptions::g7nl();
  opt.split_fraction = 1.0 / 3.0;
  auto r = geometric_mesh_partition(g.graph, g.coords, opt);
  auto [w0, w1] = side_weights(g.graph, r.part);
  double frac0 = static_cast<double>(w0) / static_cast<double>(w0 + w1);
  EXPECT_NEAR(frac0, 1.0 / 3.0, 0.02);
}

TEST(GeometricMesh, SplitFractionHalfIsBisection) {
  auto g = sp::graph::gen::grid2d(30, 30);
  GeometricMeshOptions opt = GeometricMeshOptions::g7nl();
  opt.split_fraction = 0.5;
  auto r = geometric_mesh_partition(g.graph, g.coords, opt);
  EXPECT_LE(imbalance(g.graph, r.part), 0.02);
}

}  // namespace
}  // namespace sp::partition

// -- Weighted selection and try-count validation ------------------------------
namespace sp::partition {
namespace {

// The sorted scan detail::weighted_quantile must reproduce: sort the
// values, accumulate their weights in that order, and return the first
// value whose running sum reaches fraction * total.
double sorted_scan_quantile(std::span<const double> s,
                            std::span<const Weight> w, double fraction) {
  std::vector<std::uint32_t> idx(s.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::sort(idx.begin(), idx.end(),
            [&](std::uint32_t a, std::uint32_t b) { return s[a] < s[b]; });
  Weight total = 0;
  for (std::uint32_t i : idx) total += w.empty() ? 1 : w[i];
  double target = fraction * static_cast<double>(total);
  double acc = 0;
  for (std::uint32_t i : idx) {
    acc += static_cast<double>(w.empty() ? 1 : w[i]);
    if (acc >= target) return s[i];
  }
  return s.empty() ? 0.0 : s[idx.back()];
}

TEST(GeometricMesh, WeightedQuantileMatchesSortedScan) {
  Rng rng(2024);
  const double fractions[] = {0.0, 1.0 / 3.0, 0.5, 3.0 / 7.0, 1.0};
  for (std::size_t n : {1u, 2u, 3u, 1000u}) {
    for (int draw = 0; draw < 40; ++draw) {
      // Half the values come from a pool of eight, so ties are common; the
      // random weights include zeros.
      std::vector<double> s(n);
      for (double& x : s) {
        x = rng.below(2) == 0 ? static_cast<double>(rng.below(8))
                              : rng.uniform(-1.0, 9.0);
      }
      std::vector<Weight> w(n);
      for (Weight& x : w) x = static_cast<Weight>(rng.below(5));
      for (double fraction : fractions) {
        SCOPED_TRACE("n " + std::to_string(n) + " draw " +
                     std::to_string(draw) + " fraction " +
                     std::to_string(fraction));
        EXPECT_EQ(detail::weighted_quantile(s, {}, fraction),
                  sorted_scan_quantile(s, {}, fraction));
        EXPECT_EQ(detail::weighted_quantile(s, w, fraction),
                  sorted_scan_quantile(s, w, fraction));
      }
    }
  }
  EXPECT_EQ(detail::weighted_quantile({}, {}, 0.5), 0.0);
  const std::vector<double> zeros = {3.0, 1.0, 2.0};
  const std::vector<Weight> none = {0, 0, 0};
  EXPECT_EQ(detail::weighted_quantile(zeros, none, 0.5),
            sorted_scan_quantile(zeros, none, 0.5));
}

TEST(GeometricMesh, ZeroTriesThrowInvalidArgument) {
  auto g = graph::gen::delaunay(300, 8);
  GeometricMeshOptions opt = GeometricMeshOptions::g7nl();
  opt.num_centerpoints = 0;
  EXPECT_THROW(geometric_mesh_partition(g.graph, g.coords, opt),
               std::invalid_argument);
  EXPECT_THROW(gmt_partition(g.graph, g.coords, opt, "none"),
               std::invalid_argument);
  opt.num_centerpoints = 1;
  opt.circles_per_centerpoint = 0;
  EXPECT_THROW(geometric_mesh_partition(g.graph, g.coords, opt),
               std::invalid_argument);
  opt.axis_cut = true;  // one try is enough
  auto r = geometric_mesh_partition(g.graph, g.coords, opt);
  EXPECT_EQ(r.tries, 1u);
  EXPECT_EQ(r.part.size(), g.graph.num_vertices());
}

}  // namespace
}  // namespace sp::partition
