// The shared halo against a brute-force recomputation: ghosts and their
// owners, arc slots and send lists under block, scattered and arbitrary
// ownership, including one rank, ranks that own nothing, isolated
// vertices, and ids and ranks wider than one byte; and the one
// distributed cut against graph::cut_size on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "comm/engine.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/partition.hpp"
#include "partition/distributed_cut.hpp"
#include "support/random.hpp"

namespace sp::graph {
namespace {

/// Random weighted graph whose last `isolated` vertices have no edges.
CsrGraph random_graph(VertexId n, std::size_t edges, VertexId isolated,
                      std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  const VertexId linked = n - isolated;
  for (std::size_t e = 0; linked > 1 && e < edges; ++e) {
    const auto u = static_cast<VertexId>(rng.below(linked));
    const auto v = static_cast<VertexId>(rng.below(linked));
    if (u != v) b.add_edge(u, v, static_cast<Weight>(1 + rng.below(5)));
  }
  return b.build();
}

struct Ownership {
  const char* name;
  std::uint32_t nranks;
  std::vector<std::uint32_t> owner;  // per vertex
};

/// Block ownership; block ownership with a quarter of the vertices moved
/// to random ranks, so each rank owns a run of consecutive ids, then
/// gaps and scattered ids; and arbitrary ownership that leaves the last
/// rank without a vertex.
std::vector<Ownership> ownerships(VertexId n, std::uint32_t p,
                                  std::uint64_t seed) {
  Ownership block{"block", p, std::vector<std::uint32_t>(n)};
  for (VertexId v = 0; v < n; ++v) block.owner[v] = block_owner(v, n, p);
  Rng rng(seed);
  Ownership scattered = block;
  scattered.name = "scattered";
  for (VertexId v = 0; v < n; ++v) {
    if (rng.below(4) == 0) {
      scattered.owner[v] = static_cast<std::uint32_t>(rng.below(p));
    }
  }
  Ownership arbitrary{"arbitrary", p, std::vector<std::uint32_t>(n)};
  for (VertexId v = 0; v < n; ++v) {
    arbitrary.owner[v] =
        p == 1 ? 0 : static_cast<std::uint32_t>(rng.below(p - 1));
  }
  return {block, scattered, arbitrary};
}

std::vector<VertexId> owned_by(const Ownership& own, std::uint32_t r) {
  std::vector<VertexId> owned;
  for (VertexId v = 0; v < own.owner.size(); ++v) {
    if (own.owner[v] == r) owned.push_back(v);
  }
  return owned;
}

Halo halo_of(const CsrGraph& g, const Ownership& own,
             const std::vector<VertexId>& owned) {
  return Halo(g, owned, [&](VertexId u) { return own.owner[u]; });
}

void check_against_brute_force(const CsrGraph& g, const Ownership& own) {
  SCOPED_TRACE(std::string(own.name) + " P=" + std::to_string(own.nranks));
  std::vector<std::vector<VertexId>> ghosts_of(own.nranks);
  // sent[r][s]: global ids r sends s.
  std::vector<std::vector<std::vector<VertexId>>> sent(
      own.nranks, std::vector<std::vector<VertexId>>(own.nranks));
  for (std::uint32_t r = 0; r < own.nranks; ++r) {
    const auto owned = owned_by(own, r);
    const Halo halo = halo_of(g, own, owned);
    ASSERT_EQ(halo.num_owned(), owned.size());

    std::set<VertexId> ghost_set;
    std::vector<std::set<std::uint32_t>> expected_sends(own.nranks);
    std::size_t arcs = 0;
    for (std::uint32_t i = 0; i < owned.size(); ++i) {
      for (VertexId u : g.neighbors(owned[i])) {
        ++arcs;
        if (own.owner[u] != r) {
          ghost_set.insert(u);
          expected_sends[own.owner[u]].insert(i);
        }
      }
    }
    const std::vector<VertexId> ghosts(ghost_set.begin(), ghost_set.end());
    EXPECT_EQ(halo.ghosts(), ghosts);
    ASSERT_EQ(halo.ghost_owners().size(), ghosts.size());
    for (VertexId j = 0; j < ghosts.size(); ++j) {
      EXPECT_EQ(halo.ghost_owners()[j], own.owner[ghosts[j]]);
      EXPECT_EQ(halo.ghost_index(ghosts[j]), j);
    }
    for (VertexId v : owned) EXPECT_EQ(halo.ghost_index(v), kInvalidVertex);

    ASSERT_EQ(halo.num_arcs(), arcs);
    for (std::uint32_t i = 0; i < owned.size(); ++i) {
      auto nbrs = g.neighbors(owned[i]);
      auto slots = halo.slots_of(i);
      ASSERT_EQ(slots.size(), nbrs.size());
      EXPECT_EQ(halo.arc_begin(i) + slots.size(), halo.arc_begin(i + 1));
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const VertexId named = slots[k] < owned.size()
                                   ? owned[slots[k]]
                                   : ghosts.at(slots[k] - owned.size());
        EXPECT_EQ(named, nbrs[k]);
      }
    }

    std::vector<std::uint32_t> expected_ranks;
    for (std::uint32_t s = 0; s < own.nranks; ++s) {
      if (!expected_sends[s].empty()) expected_ranks.push_back(s);
    }
    ASSERT_EQ(halo.send_ranks(), expected_ranks);
    for (std::size_t k = 0; k < expected_ranks.size(); ++k) {
      auto list = halo.send_list(k);
      const auto& expected = expected_sends[expected_ranks[k]];
      EXPECT_EQ(std::vector<std::uint32_t>(list.begin(), list.end()),
                std::vector<std::uint32_t>(expected.begin(), expected.end()));
      for (std::uint32_t i : list) sent[r][expected_ranks[k]].push_back(owned[i]);
    }
    ghosts_of[r] = ghosts;
  }
  // What r sends s is exactly the ghosts s holds of r's vertices.
  for (std::uint32_t r = 0; r < own.nranks; ++r) {
    for (std::uint32_t s = 0; s < own.nranks; ++s) {
      std::vector<VertexId> held;
      for (VertexId u : ghosts_of[s]) {
        if (own.owner[u] == r) held.push_back(u);
      }
      EXPECT_EQ(sent[r][s], held) << "rank " << r << " -> rank " << s;
    }
  }
}

TEST(HaloReference, MatchesBruteForce) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const CsrGraph g = random_graph(300, 700, 12, seed);
    for (std::uint32_t p : {1u, 2u, 5u, 16u}) {
      for (const Ownership& own : ownerships(g.num_vertices(), p, seed * 7)) {
        check_against_brute_force(g, own);
      }
    }
  }
}

TEST(HaloReference, WideIdsAndManyRanks) {
  // Vertex ids past 2^16 and owner ranks past 2^8, so the halo's radix
  // sorts order by more than the lowest byte.
  const CsrGraph g = random_graph(70000, 3000, 100, 6);
  for (const Ownership& own : ownerships(g.num_vertices(), 300, 6)) {
    check_against_brute_force(g, own);
  }
}

TEST(HaloReference, EmptyRanksAndEdgelessGraphs) {
  // Fewer vertices than ranks under block ownership, and a graph with no
  // edges at all: ranks with no owned vertex and halos with no ghost.
  const CsrGraph small = random_graph(3, 4, 0, 9);
  for (const Ownership& own : ownerships(3, 8, 9)) {
    check_against_brute_force(small, own);
  }
  const CsrGraph edgeless = random_graph(20, 0, 20, 4);
  for (const Ownership& own : ownerships(20, 4, 4)) {
    check_against_brute_force(edgeless, own);
  }
  const Halo empty = Halo(edgeless, {}, [](VertexId) { return 0u; });
  EXPECT_EQ(empty.num_owned(), 0u);
  EXPECT_TRUE(empty.send_ranks().empty());
}

class HaloDistributedCut : public ::testing::TestWithParam<exec::Backend> {};

TEST_P(HaloDistributedCut, EqualsCutSize) {
  const CsrGraph g = random_graph(400, 1000, 10, 5);
  Rng rng(11);
  Bipartition part(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    part[v] = static_cast<std::uint8_t>(rng.below(2));
  }
  const Weight expected = cut_size(g, part);
  for (std::uint32_t p : {1u, 4u, 6u}) {
    for (const Ownership& own : ownerships(g.num_vertices(), p, 3)) {
      SCOPED_TRACE(std::string(own.name) + " P=" + std::to_string(p));
      comm::BspEngine::Options opt;
      opt.nranks = p;
      opt.backend = GetParam();
      opt.threads = 2;
      comm::BspEngine engine(opt);
      std::vector<Weight> cuts(p, -1);
      engine.run([&](comm::Comm& c) {
        const auto owned = owned_by(own, c.rank());
        const Halo halo = halo_of(g, own, owned);
        std::vector<std::uint8_t> side;
        for (VertexId v : owned) side.push_back(part[v]);
        const Weight cut =
            partition::distributed_cut(c, g, owned, halo, side);
        // Rank 0 lives in the host process on every backend.
        auto all = c.gatherv(std::span<const Weight>(&cut, 1), 0);
        if (c.rank() == 0) cuts = std::move(all);
      });
      EXPECT_EQ(cuts, std::vector<Weight>(p, expected));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, HaloDistributedCut,
                         ::testing::Values(exec::Backend::kFiber,
                                           exec::Backend::kThreads,
                                           exec::Backend::kProcess),
                         [](const auto& info) {
                           return std::string(exec::backend_name(info.param));
                         });

}  // namespace
}  // namespace sp::graph
