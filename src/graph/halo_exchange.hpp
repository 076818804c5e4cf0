// The halo's one exchange: owners send their boundary values over the
// send lists, and each receiver places what arrives by position.
//
// Header-only, so sp_graph itself needs no communicator; its callers
// (coarsening, embedding, partitioning, the pipeline) link sp_comm.
#pragma once

#include <algorithm>
#include <cstdint>
#include <source_location>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/engine.hpp"
#include "graph/distributed_graph.hpp"

namespace sp::graph {

/// Picks every peer of a halo exchange.
struct AllPeers {
  constexpr bool operator()(std::uint32_t /*rank*/) const { return true; }
};

/// SPMD, every rank of `comm`: for each send rank the halo lists and
/// `to_peer(rank)` picks, sends one packet holding make(i) for every owned
/// index i of that rank's send list, in list order. make returns a
/// trivially copyable message whose `id` is the vertex's global id.
///
/// The send list rank s holds for this rank names exactly this rank's
/// ghosts owned by s, ascending, so message m of s's packet is ghost
/// recv_list(k)[m] of send_ranks()[k] == s. apply(j, msg) gets each
/// received message whose id is that ghost's; one whose id is not (a
/// message corrupted in flight) is skipped, and a ghost no message
/// reaches (a dropped packet) keeps its value. Returns the number of
/// messages received.
template <typename Make, typename Apply, typename Pick = AllPeers>
std::size_t exchange_ghosts(
    comm::Comm& comm, const Halo& halo, Make&& make, Apply&& apply,
    Pick&& to_peer = {},
    std::source_location loc = std::source_location::current()) {
  using Msg = std::invoke_result_t<Make&, std::uint32_t>;
  const std::vector<std::uint32_t>& ranks = halo.send_ranks();
  std::vector<std::pair<std::uint32_t, std::vector<Msg>>> out;
  for (std::size_t k = 0; k < ranks.size(); ++k) {
    if (!to_peer(ranks[k])) continue;
    const auto list = halo.send_list(k);
    std::vector<Msg> payload;
    payload.reserve(list.size());
    for (std::uint32_t i : list) payload.push_back(make(i));
    out.emplace_back(ranks[k], std::move(payload));
  }
  const auto in = comm.exchange_typed(out, loc);
  std::size_t received = 0;
  for (const auto& [src, payload] : in) {
    received += payload.size();
    const auto it = std::lower_bound(ranks.begin(), ranks.end(), src);
    if (it == ranks.end() || *it != src) continue;
    const auto list = halo.recv_list(
        static_cast<std::size_t>(it - ranks.begin()));
    const std::size_t n = std::min(list.size(), payload.size());
    for (std::size_t m = 0; m < n; ++m) {
      const std::uint32_t j = list[m];
      if (payload[m].id == halo.ghosts()[j]) apply(j, payload[m]);
    }
  }
  return received;
}

}  // namespace sp::graph
