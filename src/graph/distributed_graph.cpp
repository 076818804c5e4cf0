#include "graph/distributed_graph.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>

#include "support/assert.hpp"

namespace sp::graph {

std::uint32_t block_owner(VertexId global, VertexId n, std::uint32_t p) {
  SP_ASSERT(global < n);
  VertexId base = n / p;
  VertexId extra = n % p;
  // First `extra` ranks own base+1 vertices.
  VertexId fat = extra * (base + 1);
  if (global < fat) return global / (base + 1);
  return extra + static_cast<std::uint32_t>((global - fat) / std::max<VertexId>(base, 1));
}

VertexId block_begin(std::uint32_t rank, VertexId n, std::uint32_t p) {
  SP_ASSERT(rank <= p);
  VertexId base = n / p;
  VertexId extra = n % p;
  if (rank <= extra) return rank * (base + 1);
  return extra * (base + 1) + (rank - extra) * base;
}

namespace {

/// Sorts `keys` by their high 32 bits and keeps equal ones in order: a
/// byte-wise radix sort, so its cost is linear in the keys.
void sort_by_high_word(std::vector<std::uint64_t>& keys) {
  std::vector<std::uint64_t> sorted(keys.size());
  for (int shift = 32; shift < 64; shift += 8) {
    std::array<std::size_t, 256> begin{};
    for (std::uint64_t key : keys) ++begin[(key >> shift) & 0xff];
    // A byte that is the same in every key leaves the order as it is.
    if (std::find(begin.begin(), begin.end(), keys.size()) != begin.end()) {
      continue;
    }
    std::exclusive_scan(begin.begin(), begin.end(), begin.begin(),
                        std::size_t{0});
    for (std::uint64_t key : keys) {
      sorted[begin[(key >> shift) & 0xff]++] = key;
    }
    keys.swap(sorted);
  }
}

std::vector<VertexId> block_ids(VertexId begin, VertexId end) {
  std::vector<VertexId> ids(end - begin);
  std::iota(ids.begin(), ids.end(), begin);
  return ids;
}

}  // namespace

Halo::Halo(const CsrGraph& g, std::span<const VertexId> owned) {
  SP_ASSERT_MSG(std::adjacent_find(owned.begin(), owned.end(),
                                   std::greater_equal<>()) == owned.end(),
                "owned vertices must be sorted and unique");
  const auto n_owned = static_cast<std::uint32_t>(owned.size());
  arc_begin_.resize(owned.size() + 1);
  for (std::uint32_t i = 0; i < n_owned; ++i) {
    arc_begin_[i + 1] = arc_begin_[i] + g.degree(owned[i]);
  }
  // An arc into the leading run of consecutive owned ids (all of them
  // under block ownership) resolves at once: owned[u - owned[0]] == u.
  // The others go as (neighbour, arc) into a list sorted by neighbour,
  // whose merge with the sorted owned vertices resolves them and numbers
  // the ghosts in ascending order.
  slot_.resize(arc_begin_.back());
  std::vector<std::uint64_t> by_target;
  std::uint32_t arc = 0;
  for (VertexId v : owned) {
    for (VertexId u : g.neighbors(v)) {
      const VertexId k = u - owned[0];
      if (k < n_owned && owned[k] == u) {
        slot_[arc] = k;
      } else {
        by_target.push_back(std::uint64_t{u} << 32 | arc);
      }
      ++arc;
    }
  }
  sort_by_high_word(by_target);
  std::uint32_t i = 0;
  for (std::uint64_t key : by_target) {
    const auto u = static_cast<VertexId>(key >> 32);
    while (i < n_owned && owned[i] < u) ++i;
    std::uint32_t slot = i;
    if (i == n_owned || owned[i] != u) {
      if (ghosts_.empty() || ghosts_.back() != u) ghosts_.push_back(u);
      slot = n_owned + static_cast<std::uint32_t>(ghosts_.size() - 1);
    }
    slot_[static_cast<std::uint32_t>(key)] = slot;
  }
  ghost_lookup_.reserve(ghosts_.size());
  for (VertexId j = 0; j < ghosts_.size(); ++j) ghost_lookup_[ghosts_[j]] = j;
}

void Halo::link_send_lists() {
  // (owner rank, owned index) per arc into a ghost, sorted by rank. The
  // arcs are visited in owned order, so the owned indices ascend within
  // each rank, and dropping repeats sends each vertex once.
  const std::uint32_t n_owned = num_owned();
  std::vector<std::uint64_t> to_rank;
  for (std::uint32_t i = 0; i < n_owned; ++i) {
    for (std::uint32_t slot : slots_of(i)) {
      if (slot < n_owned) continue;
      const std::uint32_t owner = ghost_owner_[slot - n_owned];
      to_rank.push_back(std::uint64_t{owner} << 32 | i);
    }
  }
  sort_by_high_word(to_rank);
  to_rank.erase(std::unique(to_rank.begin(), to_rank.end()), to_rank.end());
  for (std::uint64_t pair : to_rank) {
    const auto rank = static_cast<std::uint32_t>(pair >> 32);
    if (send_ranks_.empty() || send_ranks_.back() != rank) {
      send_ranks_.push_back(rank);
      send_begin_.push_back(send_owned_.size());
    }
    send_owned_.push_back(static_cast<std::uint32_t>(pair));
  }
  send_begin_.push_back(send_owned_.size());
}

VertexId Halo::ghost_index(VertexId global) const {
  auto it = ghost_lookup_.find(global);
  return it == ghost_lookup_.end() ? kInvalidVertex : it->second;
}

LocalView::LocalView(const CsrGraph& g, std::uint32_t rank, std::uint32_t nranks)
    : graph_(&g),
      rank_(rank),
      nranks_(nranks),
      begin_(block_begin(rank, g.num_vertices(), nranks)),
      end_(block_begin(rank + 1, g.num_vertices(), nranks)),
      halo_(g, block_ids(begin_, end_), [&](VertexId u) {
        return block_owner(u, g.num_vertices(), nranks);
      }) {
  SP_ASSERT(rank < nranks);
  for (VertexId local = 0; local < num_local(); ++local) {
    auto slots = halo_.slots_of(local);
    if (std::any_of(slots.begin(), slots.end(),
                    [&](std::uint32_t s) { return s >= num_local(); })) {
      boundary_.push_back(local);
    }
  }
}

}  // namespace sp::graph
