#include "coarsen/parallel_matching.hpp"

#include "support/assert.hpp"
#include "support/random.hpp"

namespace sp::coarsen {

using graph::LocalView;
using graph::VertexId;
using graph::Weight;

namespace {
struct Proposal {
  VertexId from;    // proposing vertex (global)
  VertexId to;      // target vertex (global)
  Weight weight;    // edge weight (acceptance priority)
};
struct Verdict {
  VertexId from;
  VertexId to;
  std::uint32_t accepted;
};
struct MatchNote {
  VertexId vertex;  // boundary vertex that is now matched
};
}  // namespace

DistributedMatchingResult distributed_matching(comm::Comm& comm,
                                               const LocalView& view,
                                               std::uint32_t rounds,
                                               std::uint64_t seed) {
  const VertexId n_local = view.num_local();
  const VertexId n = view.global_graph().num_vertices();
  const graph::Halo& halo = view.halo();
  DistributedMatchingResult result;
  result.partner.assign(n_local, graph::kInvalidVertex);

  // Ghost match-state per ghost slot: 1 once we learn the ghost is
  // matched. Replies name ghosts by id; a reply naming none (a message
  // corrupted in flight) marks nothing.
  std::vector<std::uint8_t> ghost_matched(halo.ghosts().size(), 0);
  auto mark_ghost_matched = [&](VertexId global) {
    const VertexId j = halo.ghost_index(global);
    if (j != graph::kInvalidVertex) ghost_matched[j] = 1;
  };
  auto owner_of = [&](VertexId global) {
    return graph::block_owner(global, n, view.nranks());
  };

  Rng rng(seed ^ (0x9E37ull * (comm.rank() + 1)));

  for (std::uint32_t round = 0; round < rounds; ++round) {
    ++result.rounds_used;
    // Phase 1: proposals. Owned-to-owned pairs match immediately; a vertex
    // with an outstanding cross-rank proposal is `pending` and must not be
    // claimed by anyone else this round (it might win its own proposal).
    std::vector<std::uint8_t> pending(n_local, 0);
    std::vector<std::vector<Proposal>> outgoing(comm.nranks());
    auto order = random_permutation(n_local, rng);
    double work = 0.0;
    for (VertexId local : order) {
      if (result.partner[local] != graph::kInvalidVertex || pending[local]) {
        continue;
      }
      VertexId v = view.to_global(local);
      auto nbrs = view.neighbors(local);
      auto ws = view.edge_weights_of(local);
      auto slots = halo.slots_of(local);
      work += static_cast<double>(nbrs.size());
      VertexId best = graph::kInvalidVertex;
      Weight best_w = -1;
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        VertexId u = nbrs[k];
        if (slots[k] < n_local) {
          if (result.partner[slots[k]] != graph::kInvalidVertex ||
              pending[slots[k]]) {
            continue;
          }
        } else if (ghost_matched[slots[k] - n_local]) {
          continue;
        }
        if (ws[k] > best_w || (ws[k] == best_w && u < best)) {
          best = u;
          best_w = ws[k];
        }
      }
      if (best == graph::kInvalidVertex) continue;
      if (view.owns(best)) {
        result.partner[local] = best;
        result.partner[view.to_local(best)] = v;
      } else {
        // Random per-round edge orientation breaks the mutual-proposal
        // livelock (two vertices proposing to each other reject each other
        // forever without it).
        std::uint64_t salt = (static_cast<std::uint64_t>(round) + 1) * 0xA5A5ull;
        if (hash64(v ^ salt) < hash64(static_cast<std::uint64_t>(best) ^ salt)) {
          pending[local] = 1;
          outgoing[owner_of(best)].push_back({v, best, best_w});
        }
      }
    }
    comm.add_compute(work * 2.0);

    std::vector<std::pair<std::uint32_t, std::vector<Proposal>>> prop_msgs;
    for (std::uint32_t r = 0; r < comm.nranks(); ++r) {
      if (!outgoing[r].empty()) prop_msgs.emplace_back(r, std::move(outgoing[r]));
    }
    auto prop_in = comm.exchange_typed(prop_msgs);

    // Phase 2: owners accept the best proposal per target, kept in the
    // target's slot (`from` is kInvalidVertex while none arrived).
    std::vector<Proposal> best_prop(
        n_local, Proposal{graph::kInvalidVertex, graph::kInvalidVertex, 0});
    for (const auto& [src, payload] : prop_in) {
      (void)src;
      for (const Proposal& p : payload) {
        VertexId local = view.to_local(p.to);
        if (result.partner[local] != graph::kInvalidVertex || pending[local]) {
          continue;
        }
        Proposal& best = best_prop[local];
        // Priority: heavier edge; tie-break by hashed proposer for fairness.
        if (best.from == graph::kInvalidVertex ||
            std::make_pair(p.weight, hash64(p.from)) >
                std::make_pair(best.weight, hash64(best.from))) {
          best = p;
        }
      }
    }
    std::vector<std::vector<Verdict>> verdicts(comm.nranks());
    for (const auto& [src, payload] : prop_in) {
      (void)src;
      for (const Proposal& p : payload) {
        bool accepted = best_prop[view.to_local(p.to)].from == p.from;
        verdicts[owner_of(p.from)].push_back(
            {p.from, p.to, accepted ? 1u : 0u});
      }
    }
    // Apply accepted proposals on the owner side.
    std::size_t targets = 0;
    for (VertexId local = 0; local < n_local; ++local) {
      if (best_prop[local].from == graph::kInvalidVertex) continue;
      result.partner[local] = best_prop[local].from;
      ++targets;
    }
    comm.add_compute(static_cast<double>(targets) * 4.0);

    std::vector<std::pair<std::uint32_t, std::vector<Verdict>>> verdict_msgs;
    for (std::uint32_t r = 0; r < comm.nranks(); ++r) {
      if (!verdicts[r].empty()) verdict_msgs.emplace_back(r, std::move(verdicts[r]));
    }
    auto verdict_in = comm.exchange_typed(verdict_msgs);
    for (const auto& [src, payload] : verdict_in) {
      (void)src;
      for (const Verdict& v : payload) {
        VertexId local = view.to_local(v.from);
        if (v.accepted) {
          SP_ASSERT(result.partner[local] == graph::kInvalidVertex);
          result.partner[local] = v.to;
          mark_ghost_matched(v.to);
        }
      }
    }

    // Phase 3: tell each halo neighbour which of the vertices it ghosts
    // got matched.
    std::vector<std::pair<std::uint32_t, std::vector<MatchNote>>> note_msgs;
    for (std::size_t k = 0; k < halo.send_ranks().size(); ++k) {
      std::vector<MatchNote> notes;
      for (std::uint32_t local : halo.send_list(k)) {
        if (result.partner[local] != graph::kInvalidVertex) {
          notes.push_back({view.to_global(local)});
        }
      }
      if (!notes.empty()) {
        note_msgs.emplace_back(halo.send_ranks()[k], std::move(notes));
      }
    }
    auto note_in = comm.exchange_typed(note_msgs);
    for (const auto& [src, payload] : note_in) {
      (void)src;
      for (const MatchNote& nmsg : payload) mark_ghost_matched(nmsg.vertex);
    }
  }

  // Unmatched vertices match themselves.
  for (VertexId local = 0; local < n_local; ++local) {
    if (result.partner[local] == graph::kInvalidVertex) {
      result.partner[local] = view.to_global(local);
    }
  }
  return result;
}

}  // namespace sp::coarsen
