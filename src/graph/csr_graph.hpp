// Compressed-sparse-row graph: the central data structure of the library.
//
// Graphs are undirected and stored symmetrically (each edge {u,v} appears in
// both adjacency lists). Vertices and edges carry integer weights: unit
// weights for input graphs, aggregated weights for the coarse graphs
// produced by contraction (a coarse vertex's weight is the number of fine
// vertices it represents; a coarse edge's weight is the number of fine edges
// it collapses — this is what makes the coarse cut an exact proxy for the
// fine cut during multilevel partitioning).
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

namespace sp::graph {

using VertexId = std::uint32_t;
using EdgeIndex = std::uint64_t;
using Weight = std::int64_t;

constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of fully-formed CSR arrays. xadj.size() == n+1,
  /// adjncy.size() == xadj[n] == 2*M for an undirected graph with M edges.
  /// Weights may be empty, meaning all-ones.
  CsrGraph(std::vector<EdgeIndex> xadj, std::vector<VertexId> adjncy,
           std::vector<Weight> vertex_weights, std::vector<Weight> edge_weights);

  VertexId num_vertices() const { return n_; }
  /// Number of undirected edges (adjacency entries / 2).
  EdgeIndex num_edges() const { return xadj_.empty() ? 0 : xadj_[n_] / 2; }
  /// Number of directed adjacency entries (2*M).
  EdgeIndex num_arcs() const { return xadj_.empty() ? 0 : xadj_[n_]; }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {adjncy_.data() + xadj_[v],
            static_cast<std::size_t>(xadj_[v + 1] - xadj_[v])};
  }
  std::span<const Weight> edge_weights_of(VertexId v) const {
    return {eweights_.data() + xadj_[v],
            static_cast<std::size_t>(xadj_[v + 1] - xadj_[v])};
  }

  EdgeIndex degree(VertexId v) const { return xadj_[v + 1] - xadj_[v]; }
  Weight vertex_weight(VertexId v) const { return vweights_[v]; }
  Weight total_vertex_weight() const { return total_vweight_; }
  Weight total_edge_weight() const { return total_eweight_; }

  const std::vector<EdgeIndex>& xadj() const { return xadj_; }
  const std::vector<VertexId>& adjncy() const { return adjncy_; }
  const std::vector<Weight>& vertex_weights() const { return vweights_; }
  const std::vector<Weight>& edge_weights() const { return eweights_; }

  /// Structural checks: sorted xadj, in-range adjacency, no self loops,
  /// symmetric with matching weights. O(M log d). Aborts (SP_ASSERT) on the
  /// first violation; used by tests and after construction from untrusted
  /// sources.
  void validate() const;

  /// True if every edge {u,v} also appears as {v,u} with equal weight.
  bool is_symmetric() const;

  EdgeIndex max_degree() const;
  double average_degree() const;

 private:
  VertexId n_ = 0;
  std::vector<EdgeIndex> xadj_;
  std::vector<VertexId> adjncy_;
  std::vector<Weight> vweights_;
  std::vector<Weight> eweights_;
  Weight total_vweight_ = 0;
  Weight total_eweight_ = 0;
};

/// Incremental builder: accumulate undirected edges then produce a
/// symmetric, deduplicated CsrGraph. Duplicate {u,v} insertions have their
/// weights summed (contraction relies on this). Self loops are dropped.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices);

  void add_edge(VertexId u, VertexId v, Weight w = 1);
  void set_vertex_weight(VertexId v, Weight w);
  void reserve_edges(std::size_t m) { edges_.reserve(m); }

  VertexId num_vertices() const { return n_; }
  std::size_t num_added_edges() const { return edges_.size(); }

  /// Consumes the builder's edge list.
  CsrGraph build();

 private:
  VertexId n_;
  std::vector<std::tuple<VertexId, VertexId, Weight>> edges_;
  std::vector<Weight> vweights_;
};

/// Convenience: build from an explicit undirected edge list with unit
/// weights.
CsrGraph from_edges(VertexId num_vertices,
                    std::span<const std::pair<VertexId, VertexId>> edges);

/// Extract the vertex-induced subgraph; new vertex i is vertices[i].
/// `vertices` need not be sorted; `old_to_new` (optional out) receives the
/// renumbering map, kInvalidVertex for vertices outside the subgraph.
/// The result has exactly the arrays a GraphBuilder fed, for every new u,
/// add_edge(u, v, w) for each arc of row vertices[u] whose new endpoint v
/// is above u: each edge comes from its lower endpoint's row with that
/// row's weight, duplicates are summed, and every row is sorted. Built in
/// O(M) plus a sort of each row, without GraphBuilder's edge-list sort.
CsrGraph induced_subgraph(const CsrGraph& g, std::span<const VertexId> vertices,
                          std::vector<VertexId>* old_to_new = nullptr);

}  // namespace sp::graph
