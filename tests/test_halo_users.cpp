// The halo's distributed users pinned bit for bit. Parallel RCB (Fig. 4's
// baseline) and distributed heavy-edge matching exchange ghost data over
// the same nearest-neighbour halo as the lattice embedding and SP-PG7-NL;
// these pins hold their partitions, matchings, cuts, modeled clocks and
// traffic on every backend. The values are the output of the per-caller
// halo code that preceded the shared one; a change that alters any of
// them on purpose is a re-baseline.
#include <gtest/gtest.h>

#include "analysis/determinism.hpp"
#include "coarsen/parallel_matching.hpp"
#include "comm/engine.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/generators.hpp"
#include "partition/parallel_rcb.hpp"

namespace sp {
namespace {

using graph::VertexId;

template <class T>
std::uint64_t fingerprint(const std::vector<T>& v) {
  return analysis::fingerprint_bytes(v.data(), v.size() * sizeof(T));
}

comm::BspEngine::Options engine_options(exec::Backend backend,
                                        std::uint32_t nranks) {
  comm::BspEngine::Options opt;
  opt.nranks = nranks;
  opt.backend = backend;
  opt.threads = 2;
  return opt;
}

std::string case_name(exec::Backend backend, std::uint32_t nranks) {
  return std::string(exec::backend_name(backend)) + "_P" +
         std::to_string(nranks);
}

// No padding in the pins: gtest prints each case's bytes into its listed
// name, so padding would put uninitialised bytes there.
struct RcbPin {
  std::uint32_t nranks;
  std::uint32_t messages;
  std::uint64_t side_fp;
  graph::Weight cut;
  double modeled_seconds;
  std::uint64_t bytes;
};
static_assert(sizeof(RcbPin) == 40);

class ParallelRcbPins
    : public ::testing::TestWithParam<std::tuple<exec::Backend, RcbPin>> {};

TEST_P(ParallelRcbPins, SidesCutClockTraffic) {
  const auto [backend, pin] = GetParam();
  const auto d = graph::gen::delaunay(4000, 2);
  std::vector<std::uint8_t> side;
  graph::Weight cut = -1;
  comm::BspEngine engine(engine_options(backend, pin.nranks));
  const auto stats = engine.run([&](comm::Comm& c) {
    c.set_stage("rcb");
    graph::LocalView view(d.graph, c.rank(), c.nranks());
    const auto r = partition::parallel_rcb(c, view, d.coords, {});
    c.set_stage("assemble");
    // Rank 0 lives in the host process on every backend, so it assembles
    // the result; the gather carries the other ranks' sides to it.
    auto all = c.gatherv(std::span<const std::uint8_t>(r.side), 0);
    if (c.rank() == 0) {
      side = std::move(all);
      cut = r.cut;
    }
  });
  const auto cost = stats.stage_sum("rcb");
  EXPECT_EQ(fingerprint(side), pin.side_fp);
  EXPECT_EQ(cut, pin.cut);
  EXPECT_EQ(stats.stage_max("rcb").total(), pin.modeled_seconds);
  EXPECT_EQ(cost.messages, pin.messages);
  EXPECT_EQ(cost.bytes_sent, pin.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ParallelRcbPins,
    ::testing::Combine(
        ::testing::Values(exec::Backend::kFiber, exec::Backend::kThreads,
                          exec::Backend::kProcess),
        ::testing::Values(
            RcbPin{1, 0, 0xf0e16892fcded46eull, 140, 0x1.206bf9f308137p-11,
                   12},
            RcbPin{4, 572, 0xf0e16892fcded46eull, 140, 0x1.11c1050c283eep-11,
                   273968},
            RcbPin{16, 7536, 0xf0e16892fcded46eull, 140,
                   0x1.ed7fe34667062p-11, 603560})),
    [](const auto& info) {
      return case_name(std::get<0>(info.param),
                       std::get<1>(info.param).nranks);
    });

struct MatchingPin {
  std::uint32_t nranks;
  std::uint32_t messages;
  std::uint64_t partner_fp;
  double modeled_seconds;
  std::uint64_t bytes;
};
static_assert(sizeof(MatchingPin) == 32);

class DistributedMatchingPins
    : public ::testing::TestWithParam<std::tuple<exec::Backend, MatchingPin>> {
};

TEST_P(DistributedMatchingPins, PartnersClockTraffic) {
  const auto [backend, pin] = GetParam();
  const auto g = graph::gen::delaunay(4000, 2).graph;
  std::vector<VertexId> partner;
  comm::BspEngine engine(engine_options(backend, pin.nranks));
  const auto stats = engine.run([&](comm::Comm& c) {
    c.set_stage("match");
    graph::LocalView view(g, c.rank(), c.nranks());
    const auto r = coarsen::distributed_matching(c, view, 3, 42);
    c.set_stage("assemble");
    auto all = c.gatherv(std::span<const VertexId>(r.partner), 0);
    if (c.rank() == 0) partner = std::move(all);
  });
  const auto cost = stats.stage_sum("match");
  EXPECT_EQ(fingerprint(partner), pin.partner_fp);
  EXPECT_EQ(stats.stage_max("match").total(), pin.modeled_seconds);
  EXPECT_EQ(cost.messages, pin.messages);
  EXPECT_EQ(cost.bytes_sent, pin.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DistributedMatchingPins,
    ::testing::Combine(
        ::testing::Values(exec::Backend::kFiber, exec::Backend::kThreads,
                          exec::Backend::kProcess),
        ::testing::Values(
            MatchingPin{4, 108, 0xabe42f45c1cd2546ull, 0x1.347c45ea69d32p-13,
                        154904},
            MatchingPin{16, 1768, 0xb7aaff314fce82d5ull,
                        0x1.0735ff4067793p-12, 241600})),
    [](const auto& info) {
      return case_name(std::get<0>(info.param),
                       std::get<1>(info.param).nranks);
    });

}  // namespace
}  // namespace sp
