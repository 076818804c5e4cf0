// Golden-coordinate audit of the lattice embedding: lattice_embed must
// reproduce the coordinates in golden_embed_coords.hpp to 1e-12 on three
// graphs of different character (golden_embed_cases.hpp). A change that
// only reorganises the kernel or its data layout must pass unchanged; any
// drift here means the math changed. A change that alters the arithmetic
// on purpose regenerates the header with tools/dump_golden_coords in the
// same change.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "golden_embed_cases.hpp"
#include "golden_embed_coords.hpp"

namespace sp::golden {
namespace {

template <std::size_t N>
void expect_matches_golden(const std::vector<geom::Vec2>& got,
                           const double (&want)[N][2]) {
  ASSERT_EQ(got.size(), N);
  for (std::size_t v = 0; v < N; ++v) {
    EXPECT_NEAR(got[v][0], want[v][0], 1e-12) << "vertex " << v << " x";
    EXPECT_NEAR(got[v][1], want[v][1], 1e-12) << "vertex " << v << " y";
  }
}

TEST(EmbedGolden, Grid12x9MatchesAosKernel) {
  expect_matches_golden(embed_p4(grid12x9()), kGrid12x9);
}

TEST(EmbedGolden, Delaunay300MatchesAosKernel) {
  expect_matches_golden(embed_p4(delaunay300()), kDelaunay300);
}

TEST(EmbedGolden, ErdosRenyi150MatchesAosKernel) {
  expect_matches_golden(embed_p4(erdos_renyi150()), kErdosRenyi150);
}

}  // namespace
}  // namespace sp::golden
