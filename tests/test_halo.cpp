// The shared halo against a brute-force recomputation: ghosts and their
// owners, arc slots, send and receive lists under block, scattered and
// arbitrary ownership, including one rank, ranks that own nothing,
// isolated vertices, and ids and ranks wider than one byte; the halo's
// one exchange against an id lookup, on subsets of the peers and under
// dropped and corrupted packets; and the one distributed cut against
// graph::cut_size. The exchange and the cut run on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "comm/engine.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/halo_exchange.hpp"
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
  // sent[r][s]: global ids r sends s; received[s][r]: the ghosts s's
  // receive list from r names, in list order.
  std::vector<std::vector<std::vector<VertexId>>> sent(
      own.nranks, std::vector<std::vector<VertexId>>(own.nranks));
  auto received = sent;
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

      std::vector<std::uint32_t> held;
      for (std::uint32_t j = 0; j < ghosts.size(); ++j) {
        if (own.owner[ghosts[j]] == expected_ranks[k]) held.push_back(j);
      }
      auto recv = halo.recv_list(k);
      EXPECT_EQ(std::vector<std::uint32_t>(recv.begin(), recv.end()), held);
      for (std::uint32_t j : recv) {
        received[r][expected_ranks[k]].push_back(ghosts[j]);
      }
    }
  }
  // What r sends s is exactly the ghosts s holds of r's vertices, in the
  // order of s's receive list from r.
  for (std::uint32_t r = 0; r < own.nranks; ++r) {
    for (std::uint32_t s = 0; s < own.nranks; ++s) {
      EXPECT_EQ(sent[r][s], received[s][r]) << "rank " << r << " -> rank " << s;
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

/// What an owner sends for vertex v in exchange `round`.
struct ValueMsg {
  VertexId id;
  std::uint32_t value;
};

std::uint32_t value_of(VertexId v, std::uint32_t round) {
  return v * 8 + round;
}

constexpr std::uint32_t kStale = 0xFFFFFFFFu;

/// Runs `program` on every rank of a P-rank engine under `plan` and
/// returns what each rank returned, concatenated in rank order.
std::vector<std::uint32_t> run_ranks(
    exec::Backend backend, std::uint32_t p, comm::FaultPlan plan,
    const std::function<std::vector<std::uint32_t>(comm::Comm&)>& program) {
  comm::BspEngine::Options opt;
  opt.nranks = p;
  opt.backend = backend;
  opt.threads = 2;
  opt.faults = std::move(plan);
  comm::BspEngine engine(opt);
  std::vector<std::uint32_t> all;
  engine.run([&](comm::Comm& c) {
    const std::vector<std::uint32_t> mine = program(c);
    // Rank 0 lives in the host process on every backend.
    auto gathered = c.gatherv(std::span<const std::uint32_t>(mine), 0);
    if (c.rank() == 0) all = std::move(gathered);
  });
  return all;
}

/// One exchange of round `round` values to the peers `to_peer` picks;
/// ghost values land in `values`. Returns the messages received.
template <typename Pick = AllPeers>
std::size_t exchange_round(comm::Comm& c, const Halo& halo,
                           const std::vector<VertexId>& owned,
                           std::uint32_t round,
                           std::vector<std::uint32_t>& values,
                           Pick&& to_peer = {}) {
  return exchange_ghosts(
      c, halo,
      [&](std::uint32_t i) {
        return ValueMsg{owned[i], value_of(owned[i], round)};
      },
      [&](std::uint32_t j, const ValueMsg& msg) { values[j] = msg.value; },
      to_peer);
}

class HaloExchange : public ::testing::TestWithParam<exec::Backend> {};

TEST_P(HaloExchange, PlacesByPositionAsAnIdLookupDoes) {
  // The exchange's placement by position against the same messages sent
  // raw and placed by searching the ghosts for each id.
  const CsrGraph g = random_graph(300, 700, 12, 8);
  for (std::uint32_t p : {1u, 4u, 6u}) {
    for (const Ownership& own : ownerships(g.num_vertices(), p, 5)) {
      SCOPED_TRACE(std::string(own.name) + " P=" + std::to_string(p));
      std::vector<std::uint32_t> expected;
      for (std::uint32_t r = 0; r < p; ++r) {
        const Halo halo = halo_of(g, own, owned_by(own, r));
        std::vector<std::uint32_t> values;
        for (VertexId u : halo.ghosts()) values.push_back(value_of(u, 0));
        expected.insert(expected.end(), values.begin(), values.end());
        expected.insert(expected.end(), values.begin(), values.end());
        expected.push_back(static_cast<std::uint32_t>(values.size()));
        expected.push_back(static_cast<std::uint32_t>(values.size()));
      }
      const auto got = run_ranks(GetParam(), p, {}, [&](comm::Comm& c) {
        const auto owned = owned_by(own, c.rank());
        const Halo halo = halo_of(g, own, owned);
        const auto& ghosts = halo.ghosts();
        std::vector<std::uint32_t> by_position(ghosts.size(), kStale);
        const std::size_t received =
            exchange_round(c, halo, owned, 0, by_position);

        std::vector<std::pair<std::uint32_t, std::vector<ValueMsg>>> out;
        for (std::size_t k = 0; k < halo.send_ranks().size(); ++k) {
          std::vector<ValueMsg> payload;
          for (std::uint32_t i : halo.send_list(k)) {
            payload.push_back({owned[i], value_of(owned[i], 0)});
          }
          out.emplace_back(halo.send_ranks()[k], std::move(payload));
        }
        std::vector<std::uint32_t> by_id(ghosts.size(), kStale);
        std::size_t raw_received = 0;
        for (const auto& [src, payload] : c.exchange_typed(out)) {
          for (const ValueMsg& msg : payload) {
            ++raw_received;
            const auto it = std::find(ghosts.begin(), ghosts.end(), msg.id);
            if (it != ghosts.end()) by_id[it - ghosts.begin()] = msg.value;
          }
        }
        std::vector<std::uint32_t> result = by_position;
        result.insert(result.end(), by_id.begin(), by_id.end());
        result.push_back(static_cast<std::uint32_t>(received));
        result.push_back(static_cast<std::uint32_t>(raw_received));
        return result;
      });
      EXPECT_EQ(got, expected);
    }
  }
}

TEST_P(HaloExchange, NearAndFarPeersRefreshTheirOwnGhosts) {
  // The lattice's split: a near exchange every iteration and a far one
  // per block. Here "near" is a rank distance of at most one, which both
  // sides of every pair agree on.
  const CsrGraph g = random_graph(300, 700, 12, 9);
  for (std::uint32_t p : {4u, 6u}) {
    for (const Ownership& own : ownerships(g.num_vertices(), p, 6)) {
      SCOPED_TRACE(std::string(own.name) + " P=" + std::to_string(p));
      auto near_of = [](std::uint32_t me) {
        return [me](std::uint32_t rank) {
          return (me > rank ? me - rank : rank - me) <= 1;
        };
      };
      std::vector<std::uint32_t> expected;
      for (std::uint32_t r = 0; r < p; ++r) {
        const Halo halo = halo_of(g, own, owned_by(own, r));
        const auto near = near_of(r);
        std::vector<std::uint32_t> after_near, after_far;
        for (VertexId u : halo.ghosts()) {
          const bool is_near = near(own.owner[u]);
          after_near.push_back(is_near ? value_of(u, 0) : kStale);
          after_far.push_back(is_near ? value_of(u, 0) : value_of(u, 1));
        }
        expected.insert(expected.end(), after_near.begin(), after_near.end());
        expected.insert(expected.end(), after_far.begin(), after_far.end());
      }
      const auto got = run_ranks(GetParam(), p, {}, [&](comm::Comm& c) {
        const auto owned = owned_by(own, c.rank());
        const Halo halo = halo_of(g, own, owned);
        const auto near = near_of(c.rank());
        std::vector<std::uint32_t> values(halo.ghosts().size(), kStale);
        exchange_round(c, halo, owned, 0, values, near);
        std::vector<std::uint32_t> result = values;
        exchange_round(c, halo, owned, 1, values,
                       [&](std::uint32_t rank) { return !near(rank); });
        result.insert(result.end(), values.begin(), values.end());
        return result;
      });
      EXPECT_EQ(got, expected);
    }
  }
}

TEST_P(HaloExchange, DroppedAndCorruptedPacketsLeaveGhostsUnchanged) {
  // Round 0 fills every ghost; in round 1 (each rank's exchange call 1)
  // rank 1's packets are dropped or corrupted. Ghosts owned by rank 1
  // keep their round-0 values; every other ghost takes round 1. A
  // corrupted message still counts as received.
  const CsrGraph g = random_graph(300, 700, 12, 10);
  const std::uint32_t p = 4;
  const std::uint32_t faulty = 1;
  for (const bool corrupt : {false, true}) {
    comm::FaultPlan plan;
    if (corrupt) {
      plan.corrupt_message(faulty, /*at_exchange=*/1);
    } else {
      plan.drop_message(faulty, /*at_exchange=*/1);
    }
    for (const Ownership& own : ownerships(g.num_vertices(), p, 7)) {
      SCOPED_TRACE(std::string(own.name) + (corrupt ? " corrupt" : " drop"));
      std::vector<std::uint32_t> expected;
      for (std::uint32_t r = 0; r < p; ++r) {
        const Halo halo = halo_of(g, own, owned_by(own, r));
        std::uint32_t received = 0;
        for (VertexId u : halo.ghosts()) {
          const bool hit = own.owner[u] == faulty;
          expected.push_back(hit ? value_of(u, 0) : value_of(u, 1));
          if (corrupt || !hit) ++received;
        }
        expected.push_back(received);
      }
      const auto got = run_ranks(GetParam(), p, plan, [&](comm::Comm& c) {
        const auto owned = owned_by(own, c.rank());
        const Halo halo = halo_of(g, own, owned);
        std::vector<std::uint32_t> values(halo.ghosts().size(), kStale);
        exchange_round(c, halo, owned, 0, values);
        const std::size_t received =
            exchange_round(c, halo, owned, 1, values);
        std::vector<std::uint32_t> result = values;
        result.push_back(static_cast<std::uint32_t>(received));
        return result;
      });
      EXPECT_EQ(got, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, HaloExchange,
                         ::testing::Values(exec::Backend::kFiber,
                                           exec::Backend::kThreads,
                                           exec::Backend::kProcess),
                         [](const auto& info) {
                           return std::string(exec::backend_name(info.param));
                         });

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
