#include "analysis/invariants.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "graph/distributed_graph.hpp"

namespace sp::analysis {

using graph::CsrGraph;
using graph::EdgeIndex;
using graph::VertexId;
using graph::Weight;

namespace {

std::uint64_t arc_key(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

void add(Violations& out, std::string msg) { out.push_back(std::move(msg)); }

}  // namespace

Violations validate_csr(const CsrGraph& g) {
  Violations out;
  const VertexId n = g.num_vertices();
  const auto& xadj = g.xadj();
  const auto& adjncy = g.adjncy();

  if (xadj.size() != static_cast<std::size_t>(n) + 1) {
    add(out, "xadj size " + std::to_string(xadj.size()) + " != n+1 = " +
                 std::to_string(n + 1));
    return out;
  }
  if (xadj[0] != 0) add(out, "xadj[0] != 0");
  for (VertexId v = 0; v < n; ++v) {
    if (xadj[v + 1] < xadj[v]) {
      add(out, "xadj not monotone at vertex " + std::to_string(v));
      return out;
    }
  }
  if (adjncy.size() != xadj[n]) {
    add(out, "adjncy size " + std::to_string(adjncy.size()) +
                 " != xadj[n] = " + std::to_string(xadj[n]));
    return out;
  }
  if (g.vertex_weights().size() != n) {
    add(out, "vertex weight array size != n");
    return out;
  }
  if (g.edge_weights().size() != adjncy.size()) {
    add(out, "edge weight array size != adjncy size");
    return out;
  }

  for (EdgeIndex e = 0; e < adjncy.size(); ++e) {
    if (adjncy[e] >= n) {
      add(out, "adjacency entry " + std::to_string(e) + " out of range: " +
                   std::to_string(adjncy[e]) + " >= " + std::to_string(n));
      return out;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (g.vertex_weight(v) <= 0) {
      add(out, "non-positive weight at vertex " + std::to_string(v));
      break;
    }
  }

  // Self loops, duplicates, and symmetry in one arc map pass.
  std::unordered_map<std::uint64_t, Weight> arcs;
  arcs.reserve(adjncy.size());
  for (VertexId u = 0; u < n && out.size() < 16; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.edge_weights_of(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v == u) {
        add(out, "self loop at vertex " + std::to_string(u));
        continue;
      }
      if (ws[i] <= 0) {
        add(out, "non-positive edge weight on arc " + std::to_string(u) +
                     "->" + std::to_string(v));
        continue;
      }
      if (!arcs.emplace(arc_key(u, v), ws[i]).second) {
        add(out, "duplicate neighbour " + std::to_string(v) + " of vertex " +
                     std::to_string(u));
      }
    }
  }
  // Symmetry pass in CSR order, not map order: which violations make the
  // 16-entry report must not depend on hash-table iteration.
  for (VertexId u = 0; u < n && out.size() < 16; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto ws = g.edge_weights_of(u);
    for (std::size_t i = 0; i < nbrs.size() && out.size() < 16; ++i) {
      const VertexId v = nbrs[i];
      if (v == u || ws[i] <= 0) continue;  // reported above
      const auto fwd = arcs.find(arc_key(u, v));
      if (fwd == arcs.end()) continue;  // truncated first pass
      const auto rev = arcs.find(arc_key(v, u));
      if (rev == arcs.end()) {
        add(out, "asymmetric edge: " + std::to_string(u) + "->" +
                     std::to_string(v) + " has no reverse arc");
      } else if (rev->second != fwd->second) {
        add(out, "edge weight asymmetry on {" + std::to_string(u) + "," +
                     std::to_string(v) + "}: " + std::to_string(fwd->second) +
                     " vs " + std::to_string(rev->second));
      }
    }
  }
  return out;
}

Violations validate_hierarchy_level(
    const CsrGraph& fine, const CsrGraph& coarse,
    std::span<const VertexId> fine_to_coarse) {
  Violations out;
  const VertexId nf = fine.num_vertices();
  const VertexId nc = coarse.num_vertices();
  if (fine_to_coarse.size() != nf) {
    add(out, "fine_to_coarse size " + std::to_string(fine_to_coarse.size()) +
                 " != fine n = " + std::to_string(nf));
    return out;
  }
  for (VertexId v = 0; v < nf; ++v) {
    if (fine_to_coarse[v] >= nc) {
      add(out, "fine vertex " + std::to_string(v) + " maps to " +
                   std::to_string(fine_to_coarse[v]) + " >= coarse n = " +
                   std::to_string(nc));
      return out;
    }
  }

  // Vertex weight conservation + surjectivity.
  std::vector<Weight> coarse_weight(nc, 0);
  for (VertexId v = 0; v < nf; ++v) {
    coarse_weight[fine_to_coarse[v]] += fine.vertex_weight(v);
  }
  for (VertexId c = 0; c < nc && out.size() < 16; ++c) {
    if (coarse_weight[c] == 0) {
      add(out, "coarse vertex " + std::to_string(c) + " has no fine preimage");
    } else if (coarse_weight[c] != coarse.vertex_weight(c)) {
      add(out, "vertex weight not conserved at coarse vertex " +
                   std::to_string(c) + ": fine sum " +
                   std::to_string(coarse_weight[c]) + " vs coarse " +
                   std::to_string(coarse.vertex_weight(c)));
    }
  }

  // Edge aggregation: coarse edge {a,b} must carry exactly the summed
  // weight of the fine cross edges it collapses (what makes the coarse
  // cut an exact proxy for the fine cut).
  std::unordered_map<std::uint64_t, Weight> expected;
  for (VertexId u = 0; u < nf; ++u) {
    const auto nbrs = fine.neighbors(u);
    const auto ws = fine.edge_weights_of(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v <= u) continue;  // each undirected edge once
      const VertexId a = fine_to_coarse[u];
      const VertexId b = fine_to_coarse[v];
      if (a == b) continue;
      expected[arc_key(std::min(a, b), std::max(a, b))] += ws[i];
    }
  }
  std::size_t coarse_edges_seen = 0;
  for (VertexId a = 0; a < nc && out.size() < 16; ++a) {
    const auto nbrs = coarse.neighbors(a);
    const auto ws = coarse.edge_weights_of(a);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId b = nbrs[i];
      if (b <= a) continue;
      ++coarse_edges_seen;
      const auto it = expected.find(arc_key(a, b));
      if (it == expected.end()) {
        add(out, "coarse edge {" + std::to_string(a) + "," +
                     std::to_string(b) + "} has no fine cross edges");
      } else if (it->second != ws[i]) {
        add(out, "coarse edge {" + std::to_string(a) + "," +
                     std::to_string(b) + "} weight " + std::to_string(ws[i]) +
                     " != fine cross-edge sum " + std::to_string(it->second));
      }
    }
  }
  if (out.empty() && coarse_edges_seen != expected.size()) {
    add(out, "coarse graph has " + std::to_string(coarse_edges_seen) +
                 " edges but the mapping induces " +
                 std::to_string(expected.size()));
  }
  return out;
}

Violations validate_hierarchy(const coarsen::Hierarchy& h) {
  Violations out;
  if (h.num_levels() == 0) {
    add(out, "hierarchy has no levels");
    return out;
  }
  for (std::size_t i = 0; i < h.num_levels(); ++i) {
    for (std::string& v : validate_csr(h.graph_at(i))) {
      add(out, "level " + std::to_string(i) + ": " + v);
    }
  }
  if (!out.empty()) return out;
  for (std::size_t i = 1; i < h.num_levels(); ++i) {
    for (std::string& v : validate_hierarchy_level(
             h.graph_at(i - 1), h.graph_at(i), h.level(i).fine_to_coarse)) {
      add(out, "level " + std::to_string(i - 1) + "->" + std::to_string(i) +
                   ": " + v);
    }
    if (h.graph_at(i).num_vertices() >= h.graph_at(i - 1).num_vertices()) {
      add(out, "level " + std::to_string(i) + " did not shrink: " +
                   std::to_string(h.graph_at(i).num_vertices()) + " >= " +
                   std::to_string(h.graph_at(i - 1).num_vertices()));
    }
  }
  return out;
}

Violations validate_distributed_graph(const CsrGraph& g,
                                      std::uint32_t nranks) {
  Violations out;
  const VertexId n = g.num_vertices();
  if (nranks == 0) {
    add(out, "nranks == 0");
    return out;
  }
  std::vector<std::vector<std::uint32_t>> nbr_ranks_of(nranks);
  // (sender, receiver, vertex) per send-list entry, and (owner, holder,
  // ghost) per ghost: the two sides of every halo exchange.
  std::vector<std::array<VertexId, 3>> sent, held;

  VertexId expected_begin = 0;
  for (std::uint32_t r = 0; r < nranks && out.size() < 16; ++r) {
    const std::string who = "rank " + std::to_string(r) + ": ";
    graph::LocalView view(g, r, nranks);
    if (view.global_begin() != expected_begin) {
      add(out, who + "block begin " + std::to_string(view.global_begin()) +
                   " leaves a gap (expected " +
                   std::to_string(expected_begin) + ")");
      return out;
    }
    expected_begin = view.global_end();
    for (VertexId v = view.global_begin(); v < view.global_end(); ++v) {
      if (graph::block_owner(v, n, nranks) != r) {
        add(out, who + "block_owner disagrees for owned vertex " +
                     std::to_string(v));
        break;
      }
    }

    // Expected halo, recomputed from scratch.
    std::unordered_set<VertexId> ghost_set;
    std::vector<VertexId> boundary;
    for (VertexId local = 0; local < view.num_local(); ++local) {
      bool is_boundary = false;
      for (VertexId u : view.neighbors(local)) {
        if (!view.owns(u)) {
          ghost_set.insert(u);
          is_boundary = true;
        }
      }
      if (is_boundary) boundary.push_back(local);
    }

    const auto& ghosts = view.ghosts();
    if (!std::is_sorted(ghosts.begin(), ghosts.end()) ||
        std::adjacent_find(ghosts.begin(), ghosts.end()) != ghosts.end()) {
      add(out, who + "ghost list not sorted/unique");
    }
    if (ghosts.size() != ghost_set.size()) {
      add(out, who + "ghost count " + std::to_string(ghosts.size()) +
                   " != expected " + std::to_string(ghost_set.size()));
    } else {
      for (VertexId gid : ghosts) {
        if (!ghost_set.count(gid)) {
          add(out, who + "ghost " + std::to_string(gid) +
                       " is not a non-owned neighbour");
          break;
        }
      }
    }
    for (VertexId i = 0; i < ghosts.size(); ++i) {
      if (view.ghost_index(ghosts[i]) != i) {
        add(out, who + "ghost_index does not round-trip for ghost " +
                     std::to_string(ghosts[i]));
        break;
      }
    }
    if (view.boundary_locals() != boundary) {
      add(out, who + "boundary set disagrees with recomputation");
    }

    // Neighbour ranks and per-rank ghost lists.
    std::vector<std::uint32_t> expected_nbrs;
    for (VertexId gid : ghosts) {
      expected_nbrs.push_back(graph::block_owner(gid, n, nranks));
    }
    std::sort(expected_nbrs.begin(), expected_nbrs.end());
    expected_nbrs.erase(
        std::unique(expected_nbrs.begin(), expected_nbrs.end()),
        expected_nbrs.end());
    if (view.neighbor_ranks() != expected_nbrs) {
      add(out, who + "neighbor_ranks disagree with ghost ownership");
    }
    // Ghost owners, arc slots and send lists, recomputed.
    const graph::Halo& halo = view.halo();
    for (VertexId j = 0; j < ghosts.size(); ++j) {
      if (halo.ghost_owners()[j] != graph::block_owner(ghosts[j], n, nranks)) {
        add(out, who + "ghost " + std::to_string(ghosts[j]) +
                     " filed under the wrong owner rank");
        break;
      }
    }
    for (VertexId local = 0; local < view.num_local(); ++local) {
      auto nbrs = view.neighbors(local);
      auto slots = halo.slots_of(local);
      bool named = slots.size() == nbrs.size();
      for (std::size_t k = 0; named && k < nbrs.size(); ++k) {
        const VertexId ghost = slots[k] - view.num_local();
        named = slots[k] < view.num_local()
                    ? view.to_global(slots[k]) == nbrs[k]
                    : ghost < ghosts.size() && ghosts[ghost] == nbrs[k];
      }
      if (!named) {
        add(out, who + "arc slots of local vertex " + std::to_string(local) +
                     " do not name its neighbours");
        break;
      }
    }
    // (destination, local) per arc into a ghost, sorted and unique: the
    // send lists in the halo's order.
    std::vector<std::pair<std::uint32_t, VertexId>> sends, listed;
    for (VertexId local : boundary) {
      for (VertexId u : view.neighbors(local)) {
        if (!view.owns(u)) {
          sends.emplace_back(graph::block_owner(u, n, nranks), local);
        }
      }
    }
    std::sort(sends.begin(), sends.end());
    sends.erase(std::unique(sends.begin(), sends.end()), sends.end());
    for (std::size_t k = 0; k < view.neighbor_ranks().size(); ++k) {
      for (std::uint32_t i : halo.send_list(k)) {
        listed.emplace_back(view.neighbor_ranks()[k], i);
      }
    }
    if (listed != sends) {
      add(out, who + "send lists disagree with recomputation");
    }
    for (const auto& [dest, local] : sends) {
      sent.push_back({r, dest, view.to_global(local)});
    }
    for (VertexId gid : ghosts) {
      held.push_back({graph::block_owner(gid, n, nranks), r, gid});
    }
    nbr_ranks_of[r] = view.neighbor_ranks();
  }
  if (expected_begin != n && out.empty()) {
    add(out, "rank blocks do not tile [0, n): end at " +
                 std::to_string(expected_begin));
  }

  // Neighbour symmetry: r sees s iff s sees r (the halo exchange pattern
  // both sides must agree on).
  for (std::uint32_t r = 0; r < nranks && out.size() < 16; ++r) {
    for (std::uint32_t s : nbr_ranks_of[r]) {
      const auto& back = nbr_ranks_of[s];
      if (std::find(back.begin(), back.end(), r) == back.end()) {
        add(out, "neighbour asymmetry: rank " + std::to_string(r) +
                     " lists rank " + std::to_string(s) +
                     " but not vice versa");
      }
    }
  }
  // What r sends s is exactly the ghosts s holds of r's vertices. `sent`
  // is built sorted. Checked only when nothing else failed, so that every
  // rank was visited.
  std::sort(held.begin(), held.end());
  const auto [a, b] =
      std::mismatch(sent.begin(), sent.end(), held.begin(), held.end());
  if (out.empty() && (a != sent.end() || b != held.end())) {
    const auto& t = a != sent.end() ? *a : *b;
    add(out, "rank " + std::to_string(t[0]) + " sends rank " +
                 std::to_string(t[1]) + " other vertices than it ghosts");
  }
  return out;
}

Violations validate_partition(const CsrGraph& g,
                              const graph::Bipartition& part,
                              double max_imbalance) {
  Violations out;
  const VertexId n = g.num_vertices();
  if (part.size() != n) {
    add(out, "partition size " + std::to_string(part.size()) + " != n = " +
                 std::to_string(n));
    return out;
  }
  for (VertexId v = 0; v < n; ++v) {
    if (part[v] > 1) {
      add(out, "vertex " + std::to_string(v) + " has side " +
                   std::to_string(part[v]) + " (not 0/1)");
      return out;
    }
  }
  if (n < 2) return out;
  const double imb = graph::imbalance(g, part);
  if (imb > max_imbalance) {
    add(out, "imbalance " + std::to_string(imb) + " exceeds bound " +
                 std::to_string(max_imbalance));
  }
  // Cut / boundary cross-check: every cut edge contributes one unit of
  // external degree at each endpoint.
  const Weight cut = graph::cut_size(g, part);
  Weight ext_sum = 0;
  for (VertexId v : graph::boundary_vertices(g, part)) {
    ext_sum += graph::external_degree(g, part, v);
  }
  if (ext_sum != 2 * cut) {
    add(out, "boundary external-degree sum " + std::to_string(ext_sum) +
                 " != 2 * cut = " + std::to_string(2 * cut));
  }
  return out;
}

Violations validate_embedding(std::span<const geom::Vec2> coords,
                              VertexId n) {
  Violations out;
  if (coords.size() != n) {
    add(out, "embedding size " + std::to_string(coords.size()) + " != n = " +
                 std::to_string(n));
    return out;
  }
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (!std::isfinite(coords[i][0]) || !std::isfinite(coords[i][1])) {
      add(out, "non-finite coordinate at vertex " + std::to_string(i));
      return out;
    }
  }
  return out;
}

Violations validate_rank_embedding(const embed::RankEmbedding& emb) {
  Violations out;
  if (emb.pos.size() != emb.owned.size()) {
    add(out, "owned/pos arrays misaligned");
    return out;
  }
  if (emb.ghost_pos.size() != emb.ghost_ids.size() ||
      emb.ghost_owner.size() != emb.ghost_ids.size()) {
    add(out, "ghost id/pos/owner arrays misaligned");
    return out;
  }
  for (std::size_t i = 0; i < emb.pos.size(); ++i) {
    if (!std::isfinite(emb.pos[i][0]) || !std::isfinite(emb.pos[i][1])) {
      add(out, "non-finite position for owned vertex " +
                   std::to_string(emb.owned[i]));
      return out;
    }
  }
  for (std::size_t i = 0; i < emb.ghost_pos.size(); ++i) {
    if (!std::isfinite(emb.ghost_pos[i][0]) ||
        !std::isfinite(emb.ghost_pos[i][1])) {
      add(out, "non-finite position for ghost vertex " +
                   std::to_string(emb.ghost_ids[i]));
      return out;
    }
  }
  std::unordered_set<VertexId> owned(emb.owned.begin(), emb.owned.end());
  if (owned.size() != emb.owned.size()) {
    add(out, "duplicate owned vertex ids");
  }
  for (VertexId gid : emb.ghost_ids) {
    if (owned.count(gid)) {
      add(out, "vertex " + std::to_string(gid) + " is both owned and ghost");
      break;
    }
  }
  return out;
}

void fail_checkpoint(const char* checkpoint, const Violations& v) {
  std::string msg = "SP_ANALYSIS checkpoint '" + std::string(checkpoint) +
                    "' failed with " + std::to_string(v.size()) +
                    " violation(s):";
  for (const std::string& s : v) msg += "\n  - " + s;
  throw InvariantViolation(msg);
}

}  // namespace sp::analysis
