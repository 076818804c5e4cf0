// Per-rank halo of a distributed graph, and the block-distributed view.
//
// The paper's algorithms start from the graph "read in by P processors in
// approximately equal sized chunks": rank r owns the contiguous global
// vertex range [block_begin(r), block_begin(r+1)). The lattice embedding
// redistributes vertices by lattice cell instead. Either way every
// distributed step works on one structure, the Halo: the vertices a rank
// owns, its ghosts (neighbours owned by other ranks), and the lists of
// the nearest-neighbour exchange that refreshes them
// (graph/halo_exchange.hpp).
//
// In this reproduction the underlying CsrGraph lives in shared memory, but
// the algorithms only touch it through their owned vertices and the halo,
// so their communication structure (what must be sent where) is identical
// to a genuinely distributed implementation — that is what the comm
// tracing measures.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"

namespace sp::graph {

/// Owner rank of a global vertex under block distribution of n vertices
/// over p ranks (first n%p ranks own one extra).
std::uint32_t block_owner(VertexId global, VertexId n, std::uint32_t p);

/// First global vertex owned by rank r.
VertexId block_begin(std::uint32_t rank, VertexId n, std::uint32_t p);

/// One rank's halo, derived once from its sorted owned vertices and the
/// owner of each neighbour. Deriving it touches no communicator, so it
/// charges no modeled compute; callers charge what their model says.
///
/// - Ghosts: the non-owned neighbours of owned vertices, sorted, with
///   their owner ranks.
/// - Arc slots: owned vertex i's arcs, in the graph's arc order, are
///   slots()[arc_begin(i) .. arc_begin(i+1)). A slot s < num_owned() names
///   owned vertex s, otherwise ghost s - num_owned() — the combined
///   (owned, ghost) order.
/// - Send lists: for each rank owning a ghost, in ascending rank order,
///   the owned vertices that rank ghosts (those adjacent to one of its
///   vertices), each once, in ascending order. Every halo exchange sends
///   exactly these lists in this order; that order is what keeps the
///   messages, bytes and modeled clocks of all callers identical to the
///   per-caller halo code this replaced.
/// - Receive lists: for each send rank, the ghosts it owns, ascending.
///   That rank's send list to this one names the same vertices in the
///   same order, so a received message's position names its ghost.
class Halo {
 public:
  Halo() = default;

  /// `owned` must be sorted and unique; `owner_of(u)` is the rank owning
  /// ghost u. Building costs time and scratch in proportion to the owned
  /// vertices and their arcs, not to the graph.
  template <typename OwnerOf>
  Halo(const CsrGraph& g, std::span<const VertexId> owned, OwnerOf&& owner_of)
      : Halo(g, owned) {
    ghost_owner_.resize(ghosts_.size());
    for (std::size_t j = 0; j < ghosts_.size(); ++j) {
      ghost_owner_[j] = owner_of(ghosts_[j]);
    }
    link_peers();
  }

  std::uint32_t num_owned() const {
    return static_cast<std::uint32_t>(arc_begin_.size() - 1);
  }

  const std::vector<VertexId>& ghosts() const { return ghosts_; }
  /// Owning rank per ghost, aligned with ghosts().
  const std::vector<std::uint32_t>& ghost_owners() const { return ghost_owner_; }
  /// Index of a global ghost id within ghosts(), or kInvalidVertex: a
  /// binary search, for messages addressed by id rather than by position.
  VertexId ghost_index(VertexId global) const;

  std::size_t arc_begin(std::size_t owned_index) const {
    return arc_begin_[owned_index];
  }
  const std::vector<std::uint32_t>& slots() const { return slot_; }
  std::span<const std::uint32_t> slots_of(std::size_t owned_index) const {
    return {slot_.data() + arc_begin_[owned_index],
            slot_.data() + arc_begin_[owned_index + 1]};
  }
  std::size_t num_arcs() const { return slot_.size(); }

  /// Destination ranks of the send lists, ascending.
  const std::vector<std::uint32_t>& send_ranks() const { return send_ranks_; }
  /// Owned indices sent to send_ranks()[k], ascending.
  std::span<const std::uint32_t> send_list(std::size_t k) const {
    return {send_owned_.data() + send_begin_[k],
            send_owned_.data() + send_begin_[k + 1]};
  }
  /// Ghost indices owned by send_ranks()[k], ascending.
  std::span<const std::uint32_t> recv_list(std::size_t k) const {
    return {recv_ghost_.data() + recv_begin_[k],
            recv_ghost_.data() + recv_begin_[k + 1]};
  }

 private:
  /// Ghosts and arc slots; the owners, send and receive lists follow.
  Halo(const CsrGraph& g, std::span<const VertexId> owned);
  void link_peers();

  std::vector<std::size_t> arc_begin_{0};
  std::vector<std::uint32_t> slot_;
  std::vector<VertexId> ghosts_;
  std::vector<std::uint32_t> ghost_owner_;
  std::vector<std::uint32_t> send_ranks_;
  std::vector<std::size_t> send_begin_;
  std::vector<std::uint32_t> send_owned_;
  std::vector<std::size_t> recv_begin_;
  std::vector<std::uint32_t> recv_ghost_;
};

/// Rank `rank`'s view of a block-distributed graph: its block of rows,
/// with global neighbour ids, and the block's halo.
class LocalView {
 public:
  /// Builds rank `rank`'s view of `g` distributed over `nranks` ranks.
  LocalView(const CsrGraph& g, std::uint32_t rank, std::uint32_t nranks);

  std::uint32_t rank() const { return rank_; }
  std::uint32_t nranks() const { return nranks_; }
  VertexId global_begin() const { return begin_; }
  VertexId global_end() const { return end_; }
  VertexId num_local() const { return end_ - begin_; }

  bool owns(VertexId global) const { return global >= begin_ && global < end_; }
  VertexId to_local(VertexId global) const { return global - begin_; }
  VertexId to_global(VertexId local) const { return begin_ + local; }

  /// Neighbours of a local vertex, as global ids.
  std::span<const VertexId> neighbors(VertexId local) const {
    return graph_->neighbors(begin_ + local);
  }
  std::span<const Weight> edge_weights_of(VertexId local) const {
    return graph_->edge_weights_of(begin_ + local);
  }
  Weight vertex_weight(VertexId local) const {
    return graph_->vertex_weight(begin_ + local);
  }

  /// The block's halo; its owned indices are local ids.
  const Halo& halo() const { return halo_; }

  /// Sorted global ids of ghost vertices (non-owned neighbours of owned
  /// vertices).
  const std::vector<VertexId>& ghosts() const { return halo_.ghosts(); }

  /// Owned vertices with at least one non-owned neighbour (the paper's
  /// boundary set V~).
  const std::vector<VertexId>& boundary_locals() const { return boundary_; }

  /// Ranks this rank shares at least one edge with, sorted: the halo's
  /// send ranks.
  const std::vector<std::uint32_t>& neighbor_ranks() const {
    return halo_.send_ranks();
  }

  const CsrGraph& global_graph() const { return *graph_; }

 private:
  const CsrGraph* graph_;
  std::uint32_t rank_;
  std::uint32_t nranks_;
  VertexId begin_;
  VertexId end_;
  Halo halo_;
  std::vector<VertexId> boundary_;
};

}  // namespace sp::graph
