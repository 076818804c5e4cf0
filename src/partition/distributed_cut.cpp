#include "partition/distributed_cut.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace sp::partition {

using graph::VertexId;

graph::Weight distributed_cut(comm::Comm& comm, const graph::CsrGraph& g,
                              std::span<const VertexId> owned,
                              const graph::Halo& halo,
                              std::span<const std::uint8_t> side) {
  const std::size_t n_owned = owned.size();
  SP_ASSERT(side.size() == n_owned && halo.num_owned() == n_owned);
  struct SideMsg {
    VertexId id;
    std::uint32_t side;
  };
  std::vector<std::pair<std::uint32_t, std::vector<SideMsg>>> out;
  for (std::size_t k = 0; k < halo.send_ranks().size(); ++k) {
    std::vector<SideMsg> payload;
    for (std::uint32_t i : halo.send_list(k)) {
      payload.push_back({owned[i], side[i]});
    }
    out.emplace_back(halo.send_ranks()[k], std::move(payload));
  }
  auto in = comm.exchange_typed(out);
  // Sides in the combined (owned, ghost) order; kUnknown marks a ghost the
  // halo exchange did not deliver.
  constexpr std::uint8_t kUnknown = 0xFF;
  std::vector<std::uint8_t> side_all(side.begin(), side.end());
  side_all.resize(n_owned + halo.ghosts().size(), kUnknown);
  for (const auto& [src, payload] : in) {
    (void)src;
    for (const SideMsg& msg : payload) {
      const VertexId j = halo.ghost_index(msg.id);
      if (j != graph::kInvalidVertex) {
        side_all[n_owned + j] = static_cast<std::uint8_t>(msg.side);
      }
    }
  }

  double cut2 = 0.0;
  for (std::size_t i = 0; i < n_owned; ++i) {
    auto ws = g.edge_weights_of(owned[i]);
    auto slots = halo.slots_of(i);
    for (std::size_t k = 0; k < ws.size(); ++k) {
      const std::uint8_t su = side_all[slots[k]];
      SP_ASSERT_MSG(su != kUnknown, "ghost side missing in halo exchange");
      if (su != side[i]) cut2 += static_cast<double>(ws[k]);
    }
  }
  comm.add_compute(static_cast<double>(halo.num_arcs()));
  double total = comm.allreduce(cut2, comm::ReduceOp::kSum);
  return static_cast<graph::Weight>(std::llround(total / 2.0));
}

}  // namespace sp::partition
