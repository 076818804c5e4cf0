#include "partition/parallel_gmt.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "geometry/sphere.hpp"
#include "obs/span.hpp"
#include "refine/fm.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace sp::partition {

using geom::Vec2;
using geom::Vec3;
using graph::CsrGraph;
using graph::VertexId;
using graph::Weight;

namespace {

/// The owned vertices' arcs, each resolved once to an index into the
/// combined (owned, ghost) order: r < owned.size() names owned vertex r,
/// otherwise ghost r - owned.size().
struct ResolvedArcs {
  std::unordered_map<VertexId, std::uint32_t> local_of;
  std::unordered_map<VertexId, std::uint32_t> ghost_of;
  std::vector<std::size_t> off;  // owned vertex i's arcs: [off[i], off[i+1])
  std::vector<std::uint32_t> ref;
};

ResolvedArcs resolve_arcs(const CsrGraph& g, const embed::RankEmbedding& emb) {
  const auto n_local = static_cast<std::uint32_t>(emb.owned.size());
  ResolvedArcs arcs;
  arcs.local_of.reserve(n_local);
  for (std::uint32_t i = 0; i < n_local; ++i) arcs.local_of[emb.owned[i]] = i;
  arcs.ghost_of.reserve(emb.ghost_ids.size());
  for (std::uint32_t i = 0; i < emb.ghost_ids.size(); ++i) {
    arcs.ghost_of[emb.ghost_ids[i]] = i;
  }
  arcs.off.assign(n_local + 1, 0);
  for (std::uint32_t i = 0; i < n_local; ++i) {
    arcs.off[i + 1] = arcs.off[i] + g.degree(emb.owned[i]);
  }
  arcs.ref.resize(arcs.off[n_local]);
  for (std::uint32_t i = 0; i < n_local; ++i) {
    std::uint32_t* out = arcs.ref.data() + arcs.off[i];
    for (VertexId u : g.neighbors(emb.owned[i])) {
      auto it_local = arcs.local_of.find(u);
      if (it_local != arcs.local_of.end()) {
        *out++ = it_local->second;
      } else {
        auto it_ghost = arcs.ghost_of.find(u);
        SP_ASSERT(it_ghost != arcs.ghost_of.end());
        *out++ = n_local + it_ghost->second;
      }
    }
  }
  return arcs;
}

/// Side bytes of one try in the combined (owned, ghost) order.
void sides_of_try(std::span<const double> s, std::span<const double> s_ghost,
                  double threshold, std::vector<std::uint8_t>& side) {
  side.resize(s.size() + s_ghost.size());
  for (std::size_t i = 0; i < s.size(); ++i) side[i] = s[i] > threshold ? 1 : 0;
  for (std::size_t j = 0; j < s_ghost.size(); ++j) {
    side[s.size() + j] = s_ghost[j] > threshold ? 1 : 0;
  }
}

/// Deterministic local sample of up to `quota` indices from [0, n).
std::vector<std::uint32_t> sample_indices(std::size_t n, std::size_t quota,
                                          std::uint64_t seed) {
  std::vector<std::uint32_t> out;
  if (n == 0 || quota == 0) return out;
  if (n <= quota) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint32_t>(i);
    return out;
  }
  Rng rng(seed);
  out.reserve(quota);
  for (std::size_t k = 0; k < quota; ++k) {
    out.push_back(static_cast<std::uint32_t>(rng.below(n)));
  }
  return out;
}

/// Exact distributed cut of a side assignment: one halo exchange of owned
/// sides plus one reduction.
Weight distributed_cut(comm::Comm& comm, const CsrGraph& g,
                       const embed::RankEmbedding& emb,
                       const ResolvedArcs& arcs,
                       std::span<const std::uint8_t> side) {
  const std::size_t n_local = emb.owned.size();
  SP_ASSERT(side.size() == n_local);

  // Who ghosts my vertices: owner(u) for every ghost u adjacent to owned v
  // needs (v, side_v). Deduplicate per destination.
  struct SideMsg {
    VertexId id;
    std::uint32_t side;
  };
  std::vector<std::vector<SideMsg>> by_dest(comm.nranks());
  std::vector<std::uint32_t> last_sent(n_local, comm.rank());
  for (std::size_t i = 0; i < n_local; ++i) {
    for (std::size_t a = arcs.off[i]; a < arcs.off[i + 1]; ++a) {
      if (arcs.ref[a] < n_local) continue;
      std::uint32_t dest = emb.ghost_owner[arcs.ref[a] - n_local];
      if (dest == last_sent[i]) continue;  // consecutive-dup filter
      by_dest[dest].push_back({emb.owned[i], side[i]});
      last_sent[i] = dest;
    }
  }
  std::vector<std::pair<std::uint32_t, std::vector<SideMsg>>> out;
  for (std::uint32_t dest = 0; dest < comm.nranks(); ++dest) {
    if (dest == comm.rank() || by_dest[dest].empty()) continue;
    auto& list = by_dest[dest];
    std::sort(list.begin(), list.end(),
              [](const SideMsg& a, const SideMsg& b) { return a.id < b.id; });
    list.erase(std::unique(list.begin(), list.end(),
                           [](const SideMsg& a, const SideMsg& b) {
                             return a.id == b.id;
                           }),
               list.end());
    out.emplace_back(dest, std::move(list));
  }
  auto in = comm.exchange_typed(out);
  // Sides in the combined (owned, ghost) order; kUnknown marks a ghost the
  // halo exchange did not deliver.
  constexpr std::uint8_t kUnknown = 0xFF;
  std::vector<std::uint8_t> side_all(side.begin(), side.end());
  side_all.resize(n_local + emb.ghost_ids.size(), kUnknown);
  for (const auto& [src, payload] : in) {
    (void)src;
    for (const SideMsg& msg : payload) {
      auto it = arcs.ghost_of.find(msg.id);
      if (it != arcs.ghost_of.end()) {
        side_all[n_local + it->second] = static_cast<std::uint8_t>(msg.side);
      }
    }
  }

  double cut2 = 0.0;
  double work = 0.0;
  for (std::size_t i = 0; i < n_local; ++i) {
    auto ws = g.edge_weights_of(emb.owned[i]);
    const std::uint32_t* ref = arcs.ref.data() + arcs.off[i];
    work += static_cast<double>(ws.size());
    for (std::size_t k = 0; k < ws.size(); ++k) {
      const std::uint8_t su = side_all[ref[k]];
      SP_ASSERT_MSG(su != kUnknown, "ghost side missing in halo exchange");
      if (su != side[i]) cut2 += static_cast<double>(ws[k]);
    }
  }
  comm.add_compute(work);
  double total = comm.allreduce(cut2, comm::ReduceOp::kSum);
  return static_cast<Weight>(std::llround(total / 2.0));
}

struct StripRecord {
  VertexId id;
  std::uint8_t side;
  std::uint8_t movable;
};

}  // namespace

ParallelGmtResult parallel_gmt(comm::Comm& comm, const CsrGraph& g,
                               const embed::RankEmbedding& emb,
                               const ParallelGmtOptions& opt) {
  const std::uint32_t me = comm.rank();
  const std::size_t n_local = emb.owned.size();
  ParallelGmtResult result;
  result.side.assign(n_local, 0);

  // ---- Normalisation: global centroid and RMS radius (2 reductions). ----
  double sums[3] = {static_cast<double>(n_local), 0.0, 0.0};
  for (const Vec2& p : emb.pos) {
    sums[1] += p[0];
    sums[2] += p[1];
  }
  auto tot = comm.allreduce_vec(std::span<const double>(sums, 3),
                                comm::ReduceOp::kSum);
  const double n_global = std::max(tot[0], 1.0);
  Vec2 centroid = geom::vec2(tot[1] / n_global, tot[2] / n_global);
  double sq = 0.0;
  for (const Vec2& p : emb.pos) sq += geom::distance2(p, centroid);
  double rms_sq = comm.allreduce(sq, comm::ReduceOp::kSum) / n_global;
  double inv_scale = rms_sq > 1e-300 ? 1.0 / std::sqrt(rms_sq) : 1.0;
  comm.add_compute(static_cast<double>(n_local) * 4.0);

  // ---- Lift owned and ghost points to the sphere. ----
  std::vector<Vec3> lifted(n_local);
  for (std::size_t i = 0; i < n_local; ++i) {
    lifted[i] = geom::stereo_up((emb.pos[i] - centroid) * inv_scale);
  }
  std::vector<Vec3> ghost_lifted(emb.ghost_ids.size());
  for (std::size_t i = 0; i < emb.ghost_ids.size(); ++i) {
    ghost_lifted[i] = geom::stereo_up((emb.ghost_pos[i] - centroid) * inv_scale);
  }
  comm.add_compute(static_cast<double>(n_local + emb.ghost_ids.size()) * 8.0);

  // ---- Centerpoint from a cross-rank sample (1 allgather). ----
  // Quotas proportional to local ownership: lattice cells hold very uneven
  // vertex counts, and equal per-rank quotas would bias the sample (and
  // with it the centerpoint and every median below) toward sparse cells.
  auto proportional_quota = [&](std::size_t total_target) {
    return static_cast<std::size_t>(
               std::ceil(static_cast<double>(total_target) *
                         static_cast<double>(n_local) / n_global)) +
           (n_local > 0 ? 1 : 0);
  };
  const std::size_t quota = proportional_quota(opt.centerpoint_sample);
  std::vector<Vec3> my_sample;
  for (std::uint32_t i : sample_indices(n_local, quota, opt.seed ^ me)) {
    my_sample.push_back(lifted[i]);
  }
  auto sample = comm.allgatherv(std::span<const Vec3>(my_sample));
  Rng cp_rng(opt.seed ^ 0xCE27E9ull);  // same stream on every rank
  Vec3 cp = sample.empty()
                ? Vec3{}
                : geom::approximate_centerpoint(sample, cp_rng, sample.size());
  if (cp.norm() >= 0.999) cp = cp * (0.999 / cp.norm());
  geom::ConformalMap map(cp);
  comm.add_compute(static_cast<double>(sample.size()) * 50.0);

  for (Vec3& p : lifted) p = map.apply(p);
  for (Vec3& p : ghost_lifted) p = map.apply(p);
  comm.add_compute(static_cast<double>(n_local + ghost_lifted.size()) * 12.0);

  // ---- Candidate great circles (same streams everywhere). ----
  const std::uint32_t tries =
      opt.gmt.circles_per_centerpoint * opt.gmt.num_centerpoints;
  SP_ASSERT_MSG(tries > 0, "SP-PG7-NL needs at least one great circle");
  Rng dir_rng(opt.seed ^ 0xD12Cull);
  std::vector<Vec3> normals(tries);
  for (auto& u : normals) u = geom::random_unit_vector(dir_rng);

  // s values per (try, vertex).
  std::vector<double> jitter(n_local + ghost_lifted.size());
  for (std::size_t i = 0; i < n_local; ++i) {
    jitter[i] = detail::jitter(emb.owned[i]);
  }
  for (std::size_t i = 0; i < ghost_lifted.size(); ++i) {
    jitter[n_local + i] = detail::jitter(emb.ghost_ids[i]);
  }
  std::vector<std::vector<double>> s(tries, std::vector<double>(n_local));
  std::vector<std::vector<double>> s_ghost(
      tries, std::vector<double>(ghost_lifted.size()));
  for (std::uint32_t t = 0; t < tries; ++t) {
    for (std::size_t i = 0; i < n_local; ++i) {
      s[t][i] = normals[t].dot(lifted[i]) + jitter[i];
    }
    for (std::size_t i = 0; i < ghost_lifted.size(); ++i) {
      s_ghost[t][i] = normals[t].dot(ghost_lifted[i]) + jitter[n_local + i];
    }
  }
  comm.add_compute(static_cast<double>(tries) *
                   static_cast<double>(n_local + ghost_lifted.size()) * 4.0);

  // ---- Median thresholds from one combined sample allgather. ----
  const std::size_t med_quota = proportional_quota(opt.median_sample);
  auto med_idx = sample_indices(n_local, med_quota, opt.seed ^ (me * 77ull));
  std::vector<double> med_out;
  med_out.reserve(tries * med_idx.size());
  for (std::uint32_t t = 0; t < tries; ++t) {
    for (std::uint32_t i : med_idx) med_out.push_back(s[t][i]);
  }
  // Variable contributions per rank: tag each value with its try index by
  // interleaving blocks; simplest robust layout is (try, value) pairs.
  struct TryValue {
    std::uint32_t t;
    double v;
  };
  std::vector<TryValue> med_pairs;
  med_pairs.reserve(med_out.size());
  {
    std::size_t k = 0;
    for (std::uint32_t t = 0; t < tries; ++t) {
      for (std::size_t i = 0; i < med_idx.size(); ++i, ++k) {
        med_pairs.push_back({t, med_out[k]});
      }
    }
  }
  auto med_all = comm.allgatherv(std::span<const TryValue>(med_pairs));
  std::vector<double> threshold(tries, 0.0);
  {
    std::vector<std::vector<double>> per_try(tries);
    for (const TryValue& tv : med_all) per_try[tv.t].push_back(tv.v);
    for (std::uint32_t t = 0; t < tries; ++t) {
      auto& vals = per_try[t];
      SP_ASSERT(!vals.empty());
      auto mid = vals.begin() + static_cast<std::ptrdiff_t>(vals.size() / 2);
      std::nth_element(vals.begin(), mid, vals.end());
      threshold[t] = *mid;
    }
    comm.add_compute(static_cast<double>(med_all.size()) * 2.0);
  }

  // ---- Local cut and balance contributions; one reduction picks best. ----
  const ResolvedArcs arcs = resolve_arcs(g, emb);
  std::vector<std::uint8_t> side_all;  // one try's sides, (owned, ghost)
  std::vector<double> contrib(tries * 3, 0.0);  // (cut2, w0, w1) per try
  double arc_work = 0.0;
  for (std::uint32_t t = 0; t < tries; ++t) {
    sides_of_try(s[t], s_ghost[t], threshold[t], side_all);
    for (std::size_t i = 0; i < n_local; ++i) {
      VertexId v = emb.owned[i];
      const std::uint8_t side_v = side_all[i];
      contrib[3 * t + (side_v != 0 ? 2 : 1)] +=
          static_cast<double>(g.vertex_weight(v));
      auto ws = g.edge_weights_of(v);
      const std::uint32_t* ref = arcs.ref.data() + arcs.off[i];
      arc_work += static_cast<double>(ws.size());
      for (std::size_t k = 0; k < ws.size(); ++k) {
        if (side_v != side_all[ref[k]]) {
          contrib[3 * t] += static_cast<double>(ws[k]);  // counted twice total
        }
      }
    }
  }
  comm.add_compute(arc_work * 2.0);
  auto totals = comm.allreduce_vec(std::span<const double>(contrib),
                                   comm::ReduceOp::kSum);
  std::uint32_t best_t = 0;
  double best_cut = std::numeric_limits<double>::max();
  for (std::uint32_t t = 0; t < tries; ++t) {
    double cut = totals[3 * t] / 2.0;
    if (cut < best_cut) {
      best_cut = cut;
      best_t = t;
    }
  }
  result.cut_before_refine = static_cast<Weight>(std::llround(best_cut));
  result.cut = result.cut_before_refine;
  obs::gauge(comm, "partition/tries", static_cast<double>(tries));
  obs::gauge(comm, "partition/cut_before_refine", best_cut);
  for (std::size_t i = 0; i < n_local; ++i) {
    result.side[i] = s[best_t][i] > threshold[best_t] ? 1 : 0;
  }

  if (!opt.strip_refine) return result;

  // ---- Strip-FM refinement. ----
  // Strip width: pick |margin| quantile so that ~strip_factor * |boundary|
  // vertices fall inside. Boundary size comes from the winning try's cut
  // structure (endpoints of cut edges).
  sides_of_try(s[best_t], s_ghost[best_t], threshold[best_t], side_all);
  double local_boundary = 0.0;
  for (std::size_t i = 0; i < n_local; ++i) {
    for (std::size_t a = arcs.off[i]; a < arcs.off[i + 1]; ++a) {
      if (side_all[i] != side_all[arcs.ref[a]]) {
        local_boundary += 1.0;
        break;
      }
    }
  }
  double boundary_total =
      comm.allreduce(local_boundary, comm::ReduceOp::kSum);
  // The strip must stay a small multiple of the separator — cap it at 12%
  // of the graph (and the collar at 30%) so the "negligible cost" claim of
  // the paper holds even when the separator is large relative to N (on
  // scaled-down graphs |S|/N is much larger than at the paper's sizes).
  double target = std::min(0.12 * n_global,
                           std::max(64.0, opt.strip_factor * boundary_total));

  // Sampled quantiles of |margin| for the strip and the collar widths.
  std::vector<double> margin_sample;
  for (std::uint32_t i : med_idx) {
    margin_sample.push_back(std::abs(s[best_t][i] - threshold[best_t]));
  }
  auto all_margins = comm.allgatherv(std::span<const double>(margin_sample));
  double strip_width = 0.0;
  double collar_width = 0.0;
  if (!all_margins.empty()) {
    auto quantile = [&](double frac) {
      frac = std::clamp(frac, 0.0, 1.0);
      auto kth =
          all_margins.begin() +
          static_cast<std::ptrdiff_t>(std::min(
              all_margins.size() - 1,
              static_cast<std::size_t>(
                  frac * static_cast<double>(all_margins.size()))));
      std::nth_element(all_margins.begin(), kth, all_margins.end());
      return *kth;
    };
    double strip_frac = target / n_global;
    strip_width = quantile(strip_frac);
    collar_width =
        quantile(std::min(opt.collar_factor * strip_frac, 0.30));
  }

  // Ship (id, side, movable) for vertices within the collar to rank 0.
  std::vector<StripRecord> ship;
  for (std::size_t i = 0; i < n_local; ++i) {
    double m = std::abs(s[best_t][i] - threshold[best_t]);
    if (m <= collar_width) {
      ship.push_back({emb.owned[i], result.side[i],
                      static_cast<std::uint8_t>(m <= strip_width ? 1 : 0)});
    }
  }
  auto strip_all = comm.gatherv(std::span<const StripRecord>(ship), 0);

  // Rank 0 refines the strip-induced subgraph and reports the flips.
  std::vector<VertexId> flipped;
  double delta_cut = 0.0;
  if (me == 0 && strip_all.size() > 1) {
    std::vector<VertexId> ids(strip_all.size());
    for (std::size_t i = 0; i < strip_all.size(); ++i) ids[i] = strip_all[i].id;
    std::vector<VertexId> old_to_new;
    graph::CsrGraph sub = graph::induced_subgraph(g, ids, &old_to_new);
    graph::Bipartition part(sub.num_vertices());
    std::vector<VertexId> movable;
    std::size_t movable_count = 0;
    for (std::size_t i = 0; i < strip_all.size(); ++i) {
      part[static_cast<VertexId>(i)] = strip_all[i].side;
      if (strip_all[i].movable) {
        movable.push_back(static_cast<VertexId>(i));
        ++movable_count;
      }
    }
    result.strip_size = movable_count;
    // Translate the global balance window into absolute caps on the strip:
    // global side weights are known from the winning try's reduction, and
    // vertices outside the strip cannot move, so each strip side may grow
    // only until the *global* side hits (1+eps) * total/2.
    const double global_w0 = totals[3 * best_t + 1];
    const double global_w1 = totals[3 * best_t + 2];
    auto [sub_w0, sub_w1] = graph::side_weights(sub, part);
    const double global_cap =
        (1.0 + opt.epsilon) * (global_w0 + global_w1) / 2.0;
    refine::FmOptions fm_opt;
    fm_opt.side0_cap = static_cast<Weight>(std::max(
        0.0, global_cap - (global_w0 - static_cast<double>(sub_w0))));
    fm_opt.side1_cap = static_cast<Weight>(std::max(
        0.0, global_cap - (global_w1 - static_cast<double>(sub_w1))));
    fm_opt.max_passes = 8;
    auto fm = refine::fm_refine(sub, part, fm_opt, movable);
    delta_cut = static_cast<double>(fm.final_cut - fm.initial_cut);
    for (std::size_t i = 0; i < strip_all.size(); ++i) {
      if (part[static_cast<VertexId>(i)] != strip_all[i].side) {
        flipped.push_back(strip_all[i].id);
      }
    }
    // FM touches the movable vertices' incident arcs a handful of times
    // per pass; the collar's extra vertices only sit in the gain terms.
    double movable_arcs = static_cast<double>(movable.size()) *
                          std::max(1.0, static_cast<double>(sub.num_arcs()) /
                                            std::max<std::size_t>(
                                                sub.num_vertices(), 1));
    comm.add_compute(movable_arcs * 8.0);
  }

  // Broadcast flips and the cut delta; owners apply.
  auto flips = comm.broadcast_vec(std::span<const VertexId>(flipped), 0);
  delta_cut = comm.broadcast(delta_cut, 0);
  for (VertexId v : flips) {
    auto it = arcs.local_of.find(v);
    if (it != arcs.local_of.end()) {
      result.side[it->second] = static_cast<std::uint8_t>(1 - result.side[it->second]);
    }
  }
  result.cut = static_cast<Weight>(std::llround(best_cut + delta_cut));
  result.strip_size = static_cast<std::size_t>(
      comm.broadcast(static_cast<std::uint64_t>(result.strip_size), 0));
  // The strip FM delta is exact only for edges inside the shipped collar;
  // recompute the true cut with one halo exchange + reduction.
  result.cut = distributed_cut(comm, g, emb, arcs, result.side);
  obs::gauge(comm, "partition/strip_size",
             static_cast<double>(result.strip_size));
  obs::gauge(comm, "partition/strip_flips", static_cast<double>(flips.size()));
  obs::gauge(comm, "partition/cut", static_cast<double>(result.cut));
  return result;
}

}  // namespace sp::partition
