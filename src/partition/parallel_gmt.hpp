// Parallel geometric mesh partitioning — SP-PG7-NL (paper Sec. 3).
//
// Runs on the distributed embedding produced by lattice_embed. Faithful to
// the paper's parallel formulation:
//  - the centerpoint is computed from a small sample gathered across all
//    ranks (one allgather), then every rank derives the same centerpoint
//    and conformal map redundantly;
//  - all candidate great circles are evaluated redundantly on each rank:
//    one allgather of threshold samples, then a single reduction combining
//    every candidate's (cut, side-weight) contributions selects the best —
//    "3 reductions with short messages" as the paper's analysis states;
//  - line separators are omitted (the -NL variant) because they would need
//    an eigenvector-style computation that does not parallelize;
//  - Fiduccia-Mattheyses refinement is applied to a geometric *strip*
//    around the winning circle: strip-local data is gathered to rank 0
//    (the strip holds a small multiple of |separator| vertices, so this
//    costs O(|S|), not O(N)), refined, and the flipped vertices broadcast.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/engine.hpp"
#include "embed/lattice_parallel.hpp"
#include "graph/csr_graph.hpp"
#include "partition/geometric_mesh.hpp"

namespace sp::partition {

struct ParallelGmtOptions {
  GeometricMeshOptions gmt = GeometricMeshOptions::g7nl();
  /// Total sample size for the centerpoint computation (split over ranks).
  std::size_t centerpoint_sample = 512;
  /// Total sample size for each circle's median threshold.
  std::size_t median_sample = 2048;
  bool strip_refine = true;
  double strip_factor = 6.0;
  /// Collar multiplier: vertices within collar_factor * strip width are
  /// shipped along so the strip's FM gains see their neighbours' sides.
  double collar_factor = 3.0;
  double epsilon = 0.05;
  std::uint64_t seed = 99;
};

struct ParallelGmtResult {
  /// Side per owned vertex (aligned with RankEmbedding::owned).
  std::vector<std::uint8_t> side;
  graph::Weight cut = 0;
  graph::Weight cut_before_refine = 0;
  /// Strip size actually refined (0 when refinement is off), rank-0 value.
  std::size_t strip_size = 0;
};

/// SPMD: all ranks of `comm` call with their embedding slice. `g` is the
/// (shared, read-only) finest graph.
ParallelGmtResult parallel_gmt(comm::Comm& comm, const graph::CsrGraph& g,
                               const embed::RankEmbedding& emb,
                               const ParallelGmtOptions& opt);

}  // namespace sp::partition
