// Tests for the Barnes-Hut quadtree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geometry/box.hpp"
#include "geometry/quadtree.hpp"
#include "support/random.hpp"

namespace sp::geom {
namespace {

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts(n);
  for (auto& p : pts) p = vec2(rng.uniform(), rng.uniform());
  return pts;
}

Vec2 softened(const Vec2& delta, double mass) {
  double d2 = std::max(delta.norm2(), 1e-9);
  return delta * (mass / d2);
}

// Plain recursive Barnes-Hut: the same cells as QuadTree (bounds inflated
// by 1e-9, midpoint splits, leaf capacity, depth cap) built as a pointer
// tree with each cell's points in input order, traversed recursively with
// the textbook opening rule extent >= theta * distance.
struct RefNode {
  Box box;
  Vec2 com{};
  double mass = 0.0;
  std::vector<std::size_t> points;  // leaf only
  std::vector<RefNode> children;    // empty for a leaf
};

RefNode ref_build(const std::vector<Vec2>& pts,
                  const std::vector<double>& masses,
                  const std::vector<std::size_t>& ids, const Box& box,
                  std::uint32_t leaf_capacity, std::uint32_t depth) {
  RefNode node;
  node.box = box;
  for (std::size_t p : ids) {
    node.mass += masses[p];
    node.com += pts[p] * masses[p];
  }
  if (node.mass > 0.0) node.com /= node.mass;
  if (ids.size() <= leaf_capacity || depth >= QuadTree::kMaxDepth) {
    node.points = ids;
    return node;
  }
  const Vec2 mid = box.center();
  for (int q = 0; q < 4; ++q) {  // SW, SE, NW, NE
    const bool west = q % 2 == 0;
    const bool south = q < 2;
    Box child;
    child.lo = vec2(west ? box.lo[0] : mid[0], south ? box.lo[1] : mid[1]);
    child.hi = vec2(west ? mid[0] : box.hi[0], south ? mid[1] : box.hi[1]);
    std::vector<std::size_t> sub;
    for (std::size_t p : ids) {
      if ((pts[p][0] < mid[0]) == west && (pts[p][1] < mid[1]) == south) {
        sub.push_back(p);
      }
    }
    node.children.push_back(
        ref_build(pts, masses, sub, child, leaf_capacity, depth + 1));
  }
  return node;
}

struct RefSum {
  Vec2 total{};
  double abs_sum = 0.0;  // sum of |x| + |y| over every contribution

  void add(const Vec2& c) {
    total += c;
    abs_sum += std::abs(c[0]) + std::abs(c[1]);
  }
};

void ref_accumulate(const RefNode& node, const std::vector<Vec2>& pts,
                    const std::vector<double>& masses, const Vec2& query,
                    std::int64_t skip, double theta, RefSum& sum) {
  if (node.mass <= 0.0) return;
  if (node.children.empty()) {
    for (std::size_t p : node.points) {
      if (static_cast<std::int64_t>(p) == skip) continue;
      sum.add(softened(query - pts[p], masses[p]));
    }
    return;
  }
  const double extent = std::max(node.box.width(), node.box.height());
  if (extent >= theta * distance(query, node.com)) {
    for (const RefNode& child : node.children) {
      ref_accumulate(child, pts, masses, query, skip, theta, sum);
    }
  } else {
    sum.add(softened(query - node.com, node.mass));
  }
}

// accumulate_with against the reference at every point (skipping itself)
// and at one off-point query, for theta in {0, 0.5, 0.9}.
void expect_matches_reference(const std::vector<Vec2>& pts,
                              const std::vector<double>& masses,
                              std::uint32_t leaf_capacity) {
  QuadTree tree(pts, masses, leaf_capacity);
  std::vector<std::size_t> ids(pts.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  const Box bounds = Box::of(pts).inflated(1e-9);
  const RefNode root = ref_build(pts, masses, ids, bounds, leaf_capacity, 0);

  std::vector<std::pair<Vec2, std::int64_t>> queries;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    queries.emplace_back(pts[i], static_cast<std::int64_t>(i));
  }
  queries.emplace_back(vec2(0.37, 0.61), -1);
  for (double theta : {0.0, 0.5, 0.9}) {
    for (const auto& [query, skip] : queries) {
      RefSum want;
      ref_accumulate(root, pts, masses, query, skip, theta, want);
      Vec2 got = tree.accumulate_with(query, skip, theta, softened);
      const double tol = 1e-12 * want.abs_sum;
      EXPECT_LE(std::abs(got[0] - want.total[0]), tol)
          << "theta " << theta << " skip " << skip << " n " << pts.size();
      EXPECT_LE(std::abs(got[1] - want.total[1]), tol)
          << "theta " << theta << " skip " << skip << " n " << pts.size();
    }
  }
}

std::vector<double> random_masses(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> masses(n);
  for (std::size_t i = 0; i < n; ++i) {
    masses[i] = i % 7 == 3 ? 0.0 : rng.uniform(0.5, 2.0);
  }
  return masses;
}

TEST(QuadTree, TotalMassPreserved) {
  auto pts = random_points(500, 1);
  std::vector<double> masses(500);
  double expected = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    masses[i] = 1.0 + static_cast<double>(i % 5);
    expected += masses[i];
  }
  QuadTree tree(pts, masses);
  EXPECT_NEAR(tree.total_mass(), expected, 1e-9);
  EXPECT_EQ(tree.num_points(), 500u);
}

TEST(QuadTree, EmptyAndSingle) {
  QuadTree empty({}, {});
  EXPECT_EQ(empty.num_points(), 0u);
  Vec2 f = empty.accumulate_with(vec2(0, 0), -1, 0.7,
                                 [](const Vec2& d, double m) { return d * m; });
  EXPECT_EQ(f, Vec2{});

  std::vector<Vec2> one = {vec2(0.5, 0.5)};
  QuadTree single(one, {});
  EXPECT_NEAR(single.total_mass(), 1.0, 1e-12);
}

// theta = 0 forces exact traversal: the result must equal the brute force
// pairwise sum.
TEST(QuadTree, ThetaZeroIsExact) {
  auto pts = random_points(200, 2);
  QuadTree tree(pts, {});
  for (int probe = 0; probe < 5; ++probe) {
    std::size_t i = static_cast<std::size_t>(probe) * 37;
    Vec2 exact{};
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i) exact += softened(pts[i] - pts[j], 1.0);
    }
    Vec2 approx = tree.accumulate_with(pts[i], static_cast<std::int64_t>(i),
                                       0.0, softened);
    EXPECT_NEAR(approx[0], exact[0], 1e-9);
    EXPECT_NEAR(approx[1], exact[1], 1e-9);
  }
}

// Moderate theta should approximate the exact force within a few percent
// for a 1/d^2-style kernel.
TEST(QuadTree, ApproximationQuality) {
  auto pts = random_points(2000, 3);
  QuadTree tree(pts, {});
  double rel_err_sum = 0;
  int probes = 20;
  for (int probe = 0; probe < probes; ++probe) {
    std::size_t i = static_cast<std::size_t>(probe) * 97;
    Vec2 exact{};
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i) exact += softened(pts[i] - pts[j], 1.0);
    }
    Vec2 approx = tree.accumulate_with(pts[i], static_cast<std::int64_t>(i),
                                       0.5, softened);
    rel_err_sum += distance(exact, approx) / std::max(exact.norm(), 1e-12);
  }
  EXPECT_LT(rel_err_sum / probes, 0.08);
}

TEST(QuadTree, CoincidentPointsDoNotRecurseForever) {
  std::vector<Vec2> pts(100, vec2(0.25, 0.25));
  QuadTree tree(pts, {}, 2);  // leaf capacity below the duplicate count
  EXPECT_NEAR(tree.total_mass(), 100.0, 1e-9);
}

TEST(QuadTree, SkipExcludesPoint) {
  std::vector<Vec2> pts = {vec2(0, 0), vec2(1, 0)};
  QuadTree tree(pts, {});
  // theta=0: exact; skipping index 1 leaves no contributions at query 1.
  Vec2 f = tree.accumulate_with(pts[1], 1, 0.0, [](const Vec2& d, double m) {
    double dist = std::max(d.norm(), 1e-9);
    return d * (m / dist);
  });
  // Only point 0 contributes, pushing away along +x.
  EXPECT_GT(f[0], 0.9);
}

TEST(QuadTree, MatchesRecursiveReferenceOnRandomSets) {
  for (std::uint64_t seed = 11; seed < 14; ++seed) {
    for (std::size_t n : {300u, 1000u}) {
      auto pts = random_points(n, seed);
      expect_matches_reference(pts, random_masses(n, seed + 100), 8);
      expect_matches_reference(pts, std::vector<double>(n, 1.0), 8);
    }
  }
}

TEST(QuadTree, MatchesRecursiveReferenceOnTinySets) {
  for (std::size_t n : {0u, 1u, 2u, 9u}) {
    auto pts = random_points(n, 21 + n);
    expect_matches_reference(pts, std::vector<double>(n, 1.0), 8);
    expect_matches_reference(pts, random_masses(n, 31 + n), 1);
  }
}

TEST(QuadTree, MatchesRecursiveReferenceAtLeafCapacityOne) {
  auto pts = random_points(400, 41);
  expect_matches_reference(pts, random_masses(400, 42), 1);
}

// Twenty coincident points can never be separated: the cell holding them
// stops splitting at kMaxDepth and becomes one leaf, and a query from
// inside it must still exclude exactly the skipped point.
TEST(QuadTree, MatchesRecursiveReferencePastMaxDepth) {
  auto pts = random_points(60, 51);
  for (int k = 0; k < 20; ++k) pts.push_back(vec2(0.3125, 0.6875));
  std::vector<double> masses(pts.size(), 1.0);
  masses[61] = 0.0;
  expect_matches_reference(pts, masses, 2);

  // The softened kernel gives coincident points zero force, so count
  // instead: skipping a point of the deep leaf removes exactly that point.
  auto count = [](const Vec2&, double m) { return vec2(m, 1.0); };
  QuadTree tree(pts, masses, 2);
  Vec2 all = tree.accumulate_with(pts[70], -1, 0.9, count);
  Vec2 skipped = tree.accumulate_with(pts[70], 70, 0.9, count);
  EXPECT_EQ(all[0] - skipped[0], 1.0);
  EXPECT_EQ(all[1] - skipped[1], 1.0);
}

// Cells whose points all have zero mass are pruned from the node array,
// but the tree still counts every input point and the full mass.
TEST(QuadTree, ZeroMassSubtreesArePruned) {
  auto pts = random_points(1000, 61);
  std::vector<double> masses(pts.size(), 1.0);
  double expected = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i][0] < 0.5) masses[i] = 0.0;
    expected += masses[i];
  }
  QuadTree pruned(pts, masses);
  QuadTree full(pts, {});
  EXPECT_EQ(pruned.num_points(), pts.size());
  EXPECT_NEAR(pruned.total_mass(), expected, 1e-9);
  EXPECT_LT(pruned.num_nodes(), full.num_nodes());
  expect_matches_reference(pts, masses, 8);

  std::vector<double> none(pts.size(), 0.0);
  QuadTree weightless(pts, none);
  EXPECT_EQ(weightless.num_points(), pts.size());
  EXPECT_EQ(weightless.num_nodes(), 0u);
  EXPECT_EQ(weightless.total_mass(), 0.0);
  EXPECT_EQ(weightless.accumulate_with(pts[0], 0, 0.5, softened), Vec2{});
}

}  // namespace
}  // namespace sp::geom
