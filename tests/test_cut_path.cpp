// The geometric cut path pinned bit for bit. The sequential GMT, recursive
// k-way partitioning on coordinates and SP-PG7-NL on every backend must
// reproduce the partitions, cuts and modeled clocks that the sort-based
// weighted quantile, the GraphBuilder-based induced subgraph and the
// per-try hash lookups produced. The pins are those implementations'
// output; a change that alters any of them on purpose is a re-baseline.
#include <gtest/gtest.h>

#include "analysis/determinism.hpp"
#include "core/kway.hpp"
#include "core/scalapart.hpp"
#include "graph/generators.hpp"
#include "obs/stage_names.hpp"
#include "partition/geometric_mesh.hpp"

namespace sp {
namespace {

template <class T>
std::uint64_t fingerprint(const std::vector<T>& v) {
  return analysis::fingerprint_bytes(v.data(), v.size() * sizeof(T));
}

TEST(CutPathPins, GeometricMeshG7nlOnDelaunay) {
  const auto d = graph::gen::delaunay(3000, 1);
  const auto r = partition::geometric_mesh_partition(
      d.graph, d.coords, partition::GeometricMeshOptions::g7nl());
  EXPECT_EQ(fingerprint(r.part.side), 0xa633c2f8ef5fa682ull);
  EXPECT_EQ(fingerprint(r.separator_distance), 0x0dd95d8eeb06985bull);
  EXPECT_EQ(r.cut, 126);
  EXPECT_EQ(r.tries, 5u);
}

TEST(CutPathPins, GeometricMeshG30OnGrid) {
  // The axis cut of a grid puts whole columns on one value: ties that only
  // the jitter separates. The winner is a line separator.
  const auto grid = graph::gen::grid2d(40, 40);
  const auto r = partition::geometric_mesh_partition(
      grid.graph, grid.coords, partition::GeometricMeshOptions::g30());
  EXPECT_EQ(fingerprint(r.part.side), 0xede36bb50d1af384ull);
  EXPECT_EQ(fingerprint(r.separator_distance), 0x0c6166454eefe9d5ull);
  EXPECT_EQ(r.cut, 40);
  EXPECT_TRUE(r.winner_is_line);
}

TEST(CutPathPins, GeometricMeshG30AsymmetricSplit) {
  const auto d = graph::gen::delaunay(3000, 1);
  auto opt = partition::GeometricMeshOptions::g30();
  opt.split_fraction = 3.0 / 7.0;
  const auto r = partition::geometric_mesh_partition(d.graph, d.coords, opt);
  EXPECT_EQ(fingerprint(r.part.side), 0x439a807ed5dcccd6ull);
  EXPECT_EQ(fingerprint(r.separator_distance), 0x9e202ac637576fdbull);
  EXPECT_EQ(r.cut, 116);
}

// No padding: gtest prints each case's bytes into its listed name, and a
// 32-bit `parts` left four uninitialised bytes there.
struct KwayPin {
  std::uint64_t parts;
  std::uint64_t part_fp;
  graph::Weight cut;
};
static_assert(sizeof(KwayPin) == 24);

class CutPathKwayPins : public ::testing::TestWithParam<KwayPin> {};

TEST_P(CutPathKwayPins, KwayWithCoords) {
  const auto d = graph::gen::delaunay(4000, 2);
  core::KwayOptions opt;
  opt.parts = static_cast<std::uint32_t>(GetParam().parts);
  const auto r = core::kway_partition_with_coords(d.graph, d.coords, opt);
  EXPECT_EQ(fingerprint(r.part), GetParam().part_fp);
  EXPECT_EQ(r.total_cut, GetParam().cut);
}

INSTANTIATE_TEST_SUITE_P(
    Parts, CutPathKwayPins,
    ::testing::Values(KwayPin{3, 0x6d8205a90780d5e8ull, 226},
                      KwayPin{7, 0xf1d4543a921f4042ull, 457},
                      KwayPin{16, 0x5b48b500a6d617b0ull, 770}),
    [](const auto& info) {
      return std::to_string(info.param.parts) + "_parts";
    });

// No padding: gtest prints each case's bytes into its listed name.
struct Pg7nlPin {
  std::uint32_t nranks;
  std::uint32_t strip_size;
  std::uint64_t part_fp;
  graph::Weight cut;
  double modeled_seconds;
  std::uint64_t messages;
  std::uint64_t bytes;
};
static_assert(sizeof(Pg7nlPin) == 48);

class CutPathPg7nlPins
    : public ::testing::TestWithParam<std::tuple<exec::Backend, Pg7nlPin>> {};

TEST_P(CutPathPg7nlPins, SpPg7nl) {
  const auto [backend, pin] = GetParam();
  const auto d = graph::gen::delaunay(4000, 2);
  core::ScalaPartOptions opt;
  opt.nranks = pin.nranks;
  opt.backend = backend;
  opt.threads = 2;
  const auto r = core::sp_pg7nl_partition(d.graph, d.coords, opt);
  const auto cost = r.stats.stage_sum(obs::stages::kPartition);
  EXPECT_EQ(fingerprint(r.part.side), pin.part_fp);
  EXPECT_EQ(r.report.cut, pin.cut);
  EXPECT_EQ(r.modeled_seconds, pin.modeled_seconds);
  EXPECT_EQ(cost.messages, pin.messages);
  EXPECT_EQ(cost.bytes_sent, pin.bytes);
  EXPECT_EQ(r.strip_size, pin.strip_size);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CutPathPg7nlPins,
    ::testing::Combine(
        ::testing::Values(exec::Backend::kFiber, exec::Backend::kThreads,
                          exec::Backend::kProcess),
        ::testing::Values(
            Pg7nlPin{1, 465, 0xd3ec26fb2a5c6e7aull, 135,
                     0x1.8cfea88260a08p-10, 0, 201944},
            Pg7nlPin{4, 474, 0x5a7dcab95a1ed9f0ull, 129,
                     0x1.e971523712c49p-11, 128, 1119232},
            Pg7nlPin{16, 514, 0x640c75f73119898full, 131,
                     0x1.4ef0e9170a3d8p-11, 1312, 3901216})),
    [](const auto& info) {
      return std::string(exec::backend_name(std::get<0>(info.param))) + "_P" +
             std::to_string(std::get<1>(info.param).nranks);
    });

}  // namespace
}  // namespace sp
