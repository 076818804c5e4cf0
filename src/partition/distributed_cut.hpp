// The exact cut of a distributed bipartition, shared by SP-PG7-NL and
// parallel RCB.
#pragma once

#include <cstdint>
#include <span>

#include "comm/engine.hpp"
#include "graph/csr_graph.hpp"
#include "graph/distributed_graph.hpp"

namespace sp::partition {

/// SPMD: each rank passes its sorted owned vertices, their halo and their
/// sides. The owned sides travel once over the halo's send lists, every
/// owned arc is compared once (one compute unit each) and one sum
/// allreduce totals the cut, which every rank returns.
graph::Weight distributed_cut(comm::Comm& comm, const graph::CsrGraph& g,
                              std::span<const graph::VertexId> owned,
                              const graph::Halo& halo,
                              std::span<const std::uint8_t> side);

}  // namespace sp::partition
