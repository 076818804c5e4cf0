#include "graph/csr_graph.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "support/assert.hpp"

namespace sp::graph {

CsrGraph::CsrGraph(std::vector<EdgeIndex> xadj, std::vector<VertexId> adjncy,
                   std::vector<Weight> vertex_weights,
                   std::vector<Weight> edge_weights)
    : n_(xadj.empty() ? 0 : static_cast<VertexId>(xadj.size() - 1)),
      xadj_(std::move(xadj)),
      adjncy_(std::move(adjncy)),
      vweights_(std::move(vertex_weights)),
      eweights_(std::move(edge_weights)) {
  if (vweights_.empty()) vweights_.assign(n_, 1);
  if (eweights_.empty()) eweights_.assign(adjncy_.size(), 1);
  SP_ASSERT(vweights_.size() == n_);
  SP_ASSERT(eweights_.size() == adjncy_.size());
  SP_ASSERT(xadj_.empty() || xadj_.back() == adjncy_.size());
  total_vweight_ = std::accumulate(vweights_.begin(), vweights_.end(), Weight{0});
  // Each undirected edge appears twice; halve the arc-weight sum.
  Weight arc_weight =
      std::accumulate(eweights_.begin(), eweights_.end(), Weight{0});
  total_eweight_ = arc_weight / 2;
}

void CsrGraph::validate() const {
  SP_ASSERT(xadj_.size() == static_cast<std::size_t>(n_) + (n_ > 0 ? 1 : 0) ||
            (n_ == 0 && xadj_.empty()));
  for (VertexId v = 0; v < n_; ++v) {
    SP_ASSERT_MSG(xadj_[v] <= xadj_[v + 1], "xadj must be nondecreasing");
    for (EdgeIndex e = xadj_[v]; e < xadj_[v + 1]; ++e) {
      SP_ASSERT_MSG(adjncy_[e] < n_, "adjacency index out of range");
      SP_ASSERT_MSG(adjncy_[e] != v, "self loop");
      SP_ASSERT_MSG(eweights_[e] > 0, "nonpositive edge weight");
    }
  }
  SP_ASSERT_MSG(is_symmetric(), "graph must be symmetric");
}

bool CsrGraph::is_symmetric() const {
  for (VertexId u = 0; u < n_; ++u) {
    for (EdgeIndex e = xadj_[u]; e < xadj_[u + 1]; ++e) {
      VertexId v = adjncy_[e];
      // Find the reverse arc via linear scan; adjacency lists of sparse
      // graphs are short so this stays near O(M * avg_degree).
      bool found = false;
      for (EdgeIndex f = xadj_[v]; f < xadj_[v + 1]; ++f) {
        if (adjncy_[f] == u && eweights_[f] == eweights_[e]) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  return true;
}

EdgeIndex CsrGraph::max_degree() const {
  EdgeIndex best = 0;
  for (VertexId v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

double CsrGraph::average_degree() const {
  return n_ == 0 ? 0.0
                 : static_cast<double>(num_arcs()) / static_cast<double>(n_);
}

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : n_(num_vertices), vweights_(num_vertices, 1) {}

void GraphBuilder::add_edge(VertexId u, VertexId v, Weight w) {
  SP_ASSERT(u < n_ && v < n_);
  if (u == v) return;  // contraction produces self loops; drop them here
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v, w);
}

void GraphBuilder::set_vertex_weight(VertexId v, Weight w) {
  SP_ASSERT(v < n_);
  vweights_[v] = w;
}

CsrGraph GraphBuilder::build() {
  // Sort canonical (u<v) edges, merge duplicates by summing weights, then
  // emit both arc directions.
  std::sort(edges_.begin(), edges_.end());
  std::vector<std::tuple<VertexId, VertexId, Weight>> merged;
  merged.reserve(edges_.size());
  for (const auto& edge : edges_) {
    if (!merged.empty() && std::get<0>(merged.back()) == std::get<0>(edge) &&
        std::get<1>(merged.back()) == std::get<1>(edge)) {
      std::get<2>(merged.back()) += std::get<2>(edge);
    } else {
      merged.push_back(edge);
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();

  std::vector<EdgeIndex> xadj(static_cast<std::size_t>(n_) + 1, 0);
  for (const auto& [u, v, w] : merged) {
    (void)w;
    ++xadj[u + 1];
    ++xadj[v + 1];
  }
  for (std::size_t i = 1; i < xadj.size(); ++i) xadj[i] += xadj[i - 1];

  std::vector<VertexId> adjncy(xadj[n_]);
  std::vector<Weight> eweights(xadj[n_]);
  std::vector<EdgeIndex> cursor(xadj.begin(), xadj.end() - 1);
  for (const auto& [u, v, w] : merged) {
    adjncy[cursor[u]] = v;
    eweights[cursor[u]++] = w;
    adjncy[cursor[v]] = u;
    eweights[cursor[v]++] = w;
  }
  return CsrGraph(std::move(xadj), std::move(adjncy), std::move(vweights_),
                  std::move(eweights));
}

CsrGraph from_edges(VertexId num_vertices,
                    std::span<const std::pair<VertexId, VertexId>> edges) {
  GraphBuilder builder(num_vertices);
  builder.reserve_edges(edges.size());
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return builder.build();
}

CsrGraph induced_subgraph(const CsrGraph& g, std::span<const VertexId> vertices,
                          std::vector<VertexId>* old_to_new) {
  std::vector<VertexId> map(g.num_vertices(), kInvalidVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    SP_ASSERT(vertices[i] < g.num_vertices());
    SP_ASSERT_MSG(map[vertices[i]] == kInvalidVertex,
                  "duplicate vertex in induced_subgraph");
    map[vertices[i]] = static_cast<VertexId>(i);
  }
  const auto n = static_cast<VertexId>(vertices.size());

  // Each undirected edge is taken once, from its lower new endpoint's row:
  // row u's upper neighbours, sorted, duplicates summed.
  std::vector<EdgeIndex> up_off(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    EdgeIndex count = 0;
    for (VertexId v : g.neighbors(vertices[u])) {
      count += map[v] != kInvalidVertex && u < map[v] ? 1 : 0;
    }
    up_off[u + 1] = up_off[u] + count;
  }
  std::vector<VertexId> up_v(up_off[n]);
  std::vector<Weight> up_w(up_off[n]);
  std::vector<VertexId> up_len(n);
  std::vector<EdgeIndex> xadj(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    auto nbrs = g.neighbors(vertices[u]);
    auto ws = g.edge_weights_of(vertices[u]);
    VertexId* row_v = up_v.data() + up_off[u];
    Weight* row_w = up_w.data() + up_off[u];
    std::size_t len = 0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const VertexId v_new = map[nbrs[k]];
      if (v_new == kInvalidVertex || v_new <= u) continue;
      std::size_t j = len++;  // insertion sort: rows are short
      for (; j > 0 && row_v[j - 1] > v_new; --j) {
        row_v[j] = row_v[j - 1];
        row_w[j] = row_w[j - 1];
      }
      row_v[j] = v_new;
      row_w[j] = ws[k];
    }
    std::size_t merged = 0;
    for (std::size_t k = 0; k < len; ++k) {
      if (merged > 0 && row_v[merged - 1] == row_v[k]) {
        row_w[merged - 1] += row_w[k];
      } else {
        row_v[merged] = row_v[k];
        row_w[merged++] = row_w[k];
        ++xadj[row_v[k] + 1];
      }
    }
    up_len[u] = static_cast<VertexId>(merged);
    xadj[u + 1] += merged;
  }
  for (VertexId u = 0; u < n; ++u) xadj[u + 1] += xadj[u];

  // Emit both arcs of every edge in (lower, upper) order: each row lists
  // its lower neighbours, then its upper ones, both ascending.
  std::vector<VertexId> adjncy(xadj[n]);
  std::vector<Weight> eweights(xadj[n]);
  std::vector<EdgeIndex> cursor(xadj.begin(), xadj.end() - 1);
  std::vector<Weight> vweights(n);
  for (VertexId u = 0; u < n; ++u) {
    vweights[u] = g.vertex_weight(vertices[u]);
    for (EdgeIndex e = up_off[u]; e < up_off[u] + up_len[u]; ++e) {
      const VertexId v = up_v[e];
      adjncy[cursor[u]] = v;
      eweights[cursor[u]++] = up_w[e];
      adjncy[cursor[v]] = u;
      eweights[cursor[v]++] = up_w[e];
    }
  }
  if (old_to_new) *old_to_new = std::move(map);
  return CsrGraph(std::move(xadj), std::move(adjncy), std::move(vweights),
                  std::move(eweights));
}

}  // namespace sp::graph
