// Multilevel fixed-lattice parallel graph embedding — the paper's main
// contribution (Sec. 3).
//
// P ranks form a sqrt(P) x sqrt(P) grid; the embedding bounding box B is a
// matching lattice of sub-domains B_{i,j}, each owned by the grid rank at
// the same position. Per smoothing iteration:
//   - every lattice cell condenses its vertices into a "special vertex"
//     beta at the cell's centre of mass (mass = total cell mass);
//   - long-range repulsion on a vertex is the cell-to-cell beta force
//     (paper eq. 1), inherited by every vertex of the cell, plus a local
//     correction repelling the vertex from its own beta (eq. 2);
//   - attraction is exact over edges, with ghost endpoints' coordinates
//     clamped into the L1-nearest neighbouring sub-domain;
//   - only vertices owned by the cell move; ghosts stay fixed.
// Communication per iteration is nearest-neighbour only (boundary vertex
// coordinates on the processor grid); beta aggregates and coordinates of
// edges spanning non-neighbour cells are refreshed just once per block of
// `stale_block` iterations through an allgather — iterations inside a
// block deliberately act on stale data (paper: no observable quality loss
// for blocks of 2-8).
//
// Levels: the coarsest graph G^k is embedded from deterministic random
// positions on P^k = max(P / 4^k, 1) ranks; each projection to the next
// finer level doubles the box and the grid in each dimension (P
// quadruples), places children jittered around their parent, redistributes
// them to the owning cells with nearest-neighbour messages, and smooths.
//
// Execution model note (see DESIGN.md): graph topology, hierarchy maps and
// the vertex->owner directory are shared read-only/write-once structures;
// all *dynamic* data (coordinates, beta aggregates) moves through traced
// Comm operations, so the modeled communication matches a genuinely
// distributed run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/shared.hpp"
#include "coarsen/hierarchy.hpp"
#include "comm/engine.hpp"
#include "geometry/box.hpp"
#include "geometry/vec.hpp"
#include "graph/csr_graph.hpp"

namespace sp::embed {

struct LatticeEmbedOptions {
  std::uint32_t coarsest_iterations = 200;
  std::uint32_t smooth_iterations = 40;
  /// Iterations per global (beta + far-edge) refresh; 1 = refresh every
  /// iteration. Paper uses blocks of 2-8.
  std::uint32_t stale_block = 4;
  double repulsion_c = 0.2;
  /// Intra-cell repulsion: true = local Barnes-Hut quadtree over the
  /// cell's own vertices (pure local computation, O(owned log owned));
  /// false = the paper's literal eq. (2), repelling each vertex only from
  /// its own cell's aggregated beta vertex. The quadtree variant costs no
  /// extra communication and markedly improves embedding quality at small
  /// P (where one cell holds most of the graph); the ablation bench
  /// compares both.
  bool local_quadtree = true;
  double quadtree_theta = 0.9;
  std::uint64_t seed = 7;
};

/// Read-only scratch shared by all ranks of one embedding run: the
/// hierarchy, per-level child lists, and the per-level owner directories
/// (written once per level under barrier discipline).
class EmbedWorkspace {
 public:
  explicit EmbedWorkspace(const coarsen::Hierarchy& hierarchy);

  const coarsen::Hierarchy& hierarchy() const { return *hierarchy_; }
  std::size_t num_levels() const;

  /// Children (level-1 vertex ids) of coarse vertex `v` at `level` >= 1.
  std::span<const graph::VertexId> children(std::size_t level,
                                            graph::VertexId v) const;

  /// Owner directory for a level (rank per vertex). Rank-shared and
  /// written by the owning ranks during the run (distinct indices, then a
  /// publish barrier), so access goes through the race-audited span — the
  /// pre-PR-6 all-ranks-write bug in exactly this structure is what the
  /// auditor exists to catch.
  analysis::SharedSpan<std::uint32_t> owner(std::size_t level) {
    return {owner_[level].data(), owner_[level].size(),
            owner_labels_[level].c_str()};
  }

 private:
  const coarsen::Hierarchy* hierarchy_;
  // CSR-style children storage per level (index 0 unused).
  std::vector<std::vector<graph::VertexId>> child_offsets_;
  std::vector<std::vector<graph::VertexId>> child_ids_;
  std::vector<std::vector<std::uint32_t>> owner_;
  std::vector<std::string> owner_labels_;  // "embed/owner.L<level>"
};

/// This rank's slice of the finest-level embedding.
struct RankEmbedding {
  std::vector<graph::VertexId> owned;  // sorted global vertex ids, level 0
  std::vector<geom::Vec2> pos;         // aligned with owned
  /// Halo: neighbour vertices owned elsewhere, sorted, with their exact
  /// final positions (refreshed once after the last smoothing iteration
  /// so the partitioning stage sees a consistent embedding).
  std::vector<graph::VertexId> ghost_ids;
  std::vector<geom::Vec2> ghost_pos;
  std::vector<std::uint32_t> ghost_owner;  // owning rank per ghost
  std::uint32_t grid_rows = 1;
  std::uint32_t grid_cols = 1;
  geom::Box box;
};

/// Level-boundary checkpoint of the embedding (fault tolerance). After a
/// level's smoothing completes, the full coordinate array of that level
/// is gathered and stored here (the gather is traced under stage
/// "checkpoint"). When a run starts with `valid == true`, lattice_embed
/// resumes from this level instead of the coarsest: the saved coordinates
/// are fetched (a traced broadcast, stage "recover") and redistributed
/// over the — possibly shrunken — rank grid, and projection continues to
/// the finer levels. The caller owns the storage; it is shared across
/// ranks under the same write-once-then-barrier discipline as the other
/// shared structures.
struct EmbedCheckpoint {
  bool valid = false;
  std::size_t level = 0;           // hierarchy level the coords belong to
  std::vector<geom::Vec2> coords;  // coords for graph_at(level), by vertex id
  geom::Box box;                   // that level's lattice bounding box
  /// Owning rank per vertex at `level`, and the active rank count that
  /// wrote it. When a resume runs with the same active rank count
  /// (pl == this pl), ownership is restored exactly from this map —
  /// which is what makes a cold restart bit-identical to the
  /// uninterrupted run (the finer-level grids are sampled from each
  /// rank's own children, so ownership feeds the partition). After a
  /// shrink the rank count differs and restore falls back to
  /// redistributing over the new grid.
  std::vector<std::uint32_t> owner;
  std::uint32_t pl = 0;
  /// Durability hook: called by the writing rank (rank 0 of the active
  /// sub-communicator) after each checkpoint write, outside the modeled
  /// clock — host-side persistence costs no virtual time. Null = in
  /// memory only.
  std::function<void(const EmbedCheckpoint&)> persist;
};

/// SPMD entry point: every rank of `world` calls this; returns its slice.
/// world.nranks() must be a power of two. `checkpoint`, when non-null,
/// enables level-boundary checkpointing and resume (see EmbedCheckpoint).
RankEmbedding lattice_embed(comm::Comm& world, EmbedWorkspace& workspace,
                            const LatticeEmbedOptions& opt,
                            EmbedCheckpoint* checkpoint = nullptr);

/// Gathers a full coordinate array onto every rank (one allgatherv; used
/// by tests and by callers that need the embedding itself rather than the
/// partition).
std::vector<geom::Vec2> gather_embedding(comm::Comm& world,
                                         const RankEmbedding& mine,
                                         graph::VertexId n);

/// Grid shape used for P ranks: rows = 2^floor(log2(P)/2), cols = P/rows.
std::pair<std::uint32_t, std::uint32_t> grid_shape(std::uint32_t p);

/// Ranks that work on hierarchy level `level` when P ranks run the
/// pipeline: each coarser level quarters them, down to one, so
/// max(P >> 2·level, 1). Coarsening and embedding both use it.
std::uint32_t ranks_at_level(std::uint32_t p, std::size_t level);

}  // namespace sp::embed
