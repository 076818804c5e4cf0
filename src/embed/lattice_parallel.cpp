#include "embed/lattice_parallel.hpp"

#include <algorithm>
#include <cmath>

#include "geometry/balanced_grid.hpp"
#include "geometry/quadtree.hpp"

#include "embed/force_model.hpp"
#include "graph/halo_exchange.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace sp::embed {

using geom::Box;
using geom::Lattice;
using geom::Vec2;
using graph::CsrGraph;
using graph::VertexId;

std::pair<std::uint32_t, std::uint32_t> grid_shape(std::uint32_t p) {
  SP_ASSERT_MSG(p > 0 && (p & (p - 1)) == 0, "P must be a power of two");
  std::uint32_t log2p = 0;
  while ((1u << log2p) < p) ++log2p;
  std::uint32_t rows = 1u << (log2p / 2);
  return {rows, p / rows};
}

std::uint32_t ranks_at_level(std::uint32_t p, std::size_t level) {
  const auto shift = 2 * static_cast<std::uint32_t>(level);
  return shift >= 32 ? 1u : std::max(p >> shift, 1u);
}

// ---------------------------------------------------------------------------
// EmbedWorkspace
// ---------------------------------------------------------------------------

EmbedWorkspace::EmbedWorkspace(const coarsen::Hierarchy& hierarchy)
    : hierarchy_(&hierarchy) {
  const std::size_t levels = hierarchy.num_levels();
  child_offsets_.resize(levels);
  child_ids_.resize(levels);
  owner_.resize(levels);
  owner_labels_.resize(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    owner_[level].assign(hierarchy.graph_at(level).num_vertices(), 0);
    owner_labels_[level] = "embed/owner.L" + std::to_string(level);
  }
  // Children of level-l vertices are level-(l-1) vertices: invert the
  // fine_to_coarse map with a counting sort.
  for (std::size_t level = 1; level < levels; ++level) {
    const auto& map = hierarchy.level(level).fine_to_coarse;
    const VertexId coarse_n = hierarchy.graph_at(level).num_vertices();
    auto& offsets = child_offsets_[level];
    auto& ids = child_ids_[level];
    offsets.assign(coarse_n + 1, 0);
    for (VertexId f = 0; f < map.size(); ++f) ++offsets[map[f] + 1];
    for (VertexId c = 0; c < coarse_n; ++c) offsets[c + 1] += offsets[c];
    ids.resize(map.size());
    std::vector<VertexId> cursor(offsets.begin(), offsets.end() - 1);
    for (VertexId f = 0; f < map.size(); ++f) ids[cursor[map[f]]++] = f;
  }
}

std::size_t EmbedWorkspace::num_levels() const {
  return hierarchy_->num_levels();
}

std::span<const VertexId> EmbedWorkspace::children(std::size_t level,
                                                   VertexId v) const {
  SP_ASSERT(level >= 1 && level < child_offsets_.size());
  const auto& offsets = child_offsets_[level];
  return {child_ids_[level].data() + offsets[v],
          static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
}

// ---------------------------------------------------------------------------
// Per-level SPMD state and smoothing
// ---------------------------------------------------------------------------

namespace {

struct CoordMsg {
  VertexId id;
  double x, y;
};

/// Deterministic per-vertex uniform in [0,1): identical on every rank, so
/// the coarsest-level initialisation needs no communication.
double unit_hash(std::uint64_t seed, VertexId v, std::uint64_t salt) {
  return static_cast<double>(hash64(seed ^ (static_cast<std::uint64_t>(v) << 2) ^
                                    (salt * 0x9E3779B97F4A7C15ull)) >>
                             11) *
         0x1.0p-53;
}

struct LevelLocal {
  std::size_t level = 0;
  std::uint32_t pl = 1;            // participating ranks at this level
  std::uint32_t rows = 1, cols = 1;
  Box box;
  /// Load-balanced cell decomposition (RCB-style quantile grid, see
  /// geometry/balanced_grid.hpp); shared because all ranks build the same
  /// one from the same gathered sample.
  std::shared_ptr<geom::BalancedGrid> grid;
  std::vector<VertexId> owned;     // sorted global ids
  std::vector<Vec2> pos;           // aligned with owned
  /// Ghosts, arc slots, send and receive lists of `owned`
  /// (graph/distributed_graph.hpp).
  graph::Halo halo;
  std::vector<Vec2> ghost_pos;     // aligned with halo.ghosts()
};

std::uint32_t grid_row(std::uint32_t rank, std::uint32_t cols) {
  return rank / cols;
}
std::uint32_t grid_col(std::uint32_t rank, std::uint32_t cols) {
  return rank % cols;
}

bool grid_near(std::uint32_t a, std::uint32_t b, std::uint32_t cols) {
  auto dr = static_cast<std::int64_t>(grid_row(a, cols)) -
            static_cast<std::int64_t>(grid_row(b, cols));
  auto dc = static_cast<std::int64_t>(grid_col(a, cols)) -
            static_cast<std::int64_t>(grid_col(b, cols));
  return std::abs(dr) <= 1 && std::abs(dc) <= 1;
}

/// After `owned`/`pos` and the level owner directory are final, derives
/// the level's halo. `owner_of(u)` resolves a vertex's owning rank — an
/// audited read of the shared directory on most paths, or a plain lookup
/// when the caller holds a rank-local copy (the coarsest level, where
/// every rank derives the full map itself). Charged as one unit per owned
/// arc and vertex.
template <typename OwnerFn>
void enter_level(LevelLocal& local, const CsrGraph& g, OwnerFn&& owner_of,
                 comm::Comm& sub) {
  local.halo = graph::Halo(g, local.owned, owner_of);
  local.ghost_pos.assign(local.halo.ghosts().size(), Vec2{});
  sub.add_compute(static_cast<double>(local.halo.num_arcs()) +
                  static_cast<double>(local.owned.size()));
}

/// Counts the packets and bytes of a coordinate exchange to the halo
/// peers `to_peer` picks, when a recorder is installed.
template <typename Pick>
void count_ghost_traffic(comm::Comm& sub, const graph::Halo& halo,
                         Pick&& to_peer) {
  if (!obs::active()) return;
  std::size_t packets = 0;
  std::size_t sent = 0;
  for (std::size_t k = 0; k < halo.send_ranks().size(); ++k) {
    if (!to_peer(halo.send_ranks()[k])) continue;
    ++packets;
    sent += halo.send_list(k).size();
  }
  obs::count(sub, "embed/ghost_msgs", static_cast<double>(packets));
  obs::count(sub, "embed/ghost_bytes",
             static_cast<double>(sent * sizeof(CoordMsg)));
}

/// Brings every ghost position exactly up to date with one exchange to
/// all halo peers. Called once after the finest level's smoothing so the
/// geometric partitioning stage evaluates cuts on a consistent embedding.
void refresh_all_ghosts(comm::Comm& sub, LevelLocal& local) {
  count_ghost_traffic(sub, local.halo, graph::AllPeers{});
  graph::exchange_ghosts(
      sub, local.halo,
      [&](std::uint32_t i) {
        return CoordMsg{local.owned[i], local.pos[i][0], local.pos[i][1]};
      },
      [&](std::uint32_t j, const CoordMsg& msg) {
        local.ghost_pos[j] = geom::vec2(msg.x, msg.y);
      });
}

/// One level's fixed-lattice smoothing.
///
/// Hot-loop layout: coordinates are kept in structure-of-arrays form
/// (px/py for owned vertices, gx/gy for ghosts) and the adjacency is
/// pre-resolved into index references, so the force loop is a branch-light
/// gather over flat double arrays followed by a separate accumulate pass.
/// Ghost coordinates are clamped into the L1-nearest neighbouring
/// sub-domain once per *update* instead of once per edge read —
/// clamp_to_neighbor is a pure function of the ghost position, so the
/// hoisted value is bit-identical. local.pos / local.ghost_pos remain the
/// canonical (exact, unclamped) stores: ghost_pos is updated in place and
/// pos is written back when the level finishes.
void smooth_level(comm::Comm& sub, LevelLocal& local, const CsrGraph& g,
                  const LatticeEmbedOptions& opt, std::uint32_t iterations,
                  double initial_step_factor, double final_step_fraction) {
  const std::uint32_t me = sub.rank();
  const VertexId n = g.num_vertices();
  if (n == 0 || iterations == 0) return;

  SP_ASSERT(local.grid != nullptr);
  const geom::BalancedGrid& lattice = *local.grid;
  const std::uint32_t my_row = grid_row(me, local.cols);
  const std::uint32_t my_col = grid_col(me, local.cols);

  ForceModel model;
  model.K = ForceModel::natural_length(
      std::max(local.box.width() * local.box.height(), 1e-12), n);
  model.C = opt.repulsion_c;
  // Hu-style adaptive step control: the step grows while the global
  // force energy keeps falling and shrinks when it rises. The energy
  // reduction piggybacks on the per-block refresh (one extra 8-byte
  // allreduce per block), so it adds no per-iteration global traffic.
  double step = initial_step_factor * model.K;
  const double min_step = 1e-3 * model.K;
  const double max_step = 2.0 * model.K;
  const double in_block_decay =
      std::pow(std::max(final_step_fraction, 0.02),
               1.0 / std::max(1u, iterations));
  double prev_energy = std::numeric_limits<double>::infinity();
  int progress = 0;
  double block_energy = 0.0;

  std::vector<double> mass(local.owned.size());
  double my_mass = 0.0;
  for (std::uint32_t i = 0; i < local.owned.size(); ++i) {
    mass[i] = static_cast<double>(g.vertex_weight(local.owned[i]));
    my_mass += mass[i];
  }

  // Stale global state: per-cell (centre of mass, mass).
  std::vector<Vec2> beta_pos(local.pl, Vec2{});
  std::vector<double> beta_mass(local.pl, 0.0);

  std::vector<Vec2> force(local.owned.size());

  const auto owned_n = static_cast<std::uint32_t>(local.owned.size());
  const auto ghost_n = static_cast<std::uint32_t>(local.halo.ghosts().size());

  // SoA coordinate mirrors. gx/gy hold the *clamped* ghost positions the
  // force loop reads; an unreceived ghost clamps its zero-initialised
  // placeholder, exactly as the old per-edge clamp did.
  std::vector<double> px(owned_n), py(owned_n);
  for (std::uint32_t i = 0; i < owned_n; ++i) {
    px[i] = local.pos[i][0];
    py[i] = local.pos[i][1];
  }
  std::vector<double> gx(ghost_n), gy(ghost_n);
  for (std::uint32_t j = 0; j < ghost_n; ++j) {
    Vec2 c = lattice.clamp_to_neighbor(my_row, my_col, local.ghost_pos[j]);
    gx[j] = c[0];
    gy[j] = c[1];
  }

  // The halo's arc slots name an owned index or, from owned_n on, a ghost
  // index; the edge weights are widened alongside.
  const graph::Halo& halo = local.halo;
  const std::uint32_t* slot = halo.slots().data();
  std::vector<double> nbr_w(halo.num_arcs());
  std::uint32_t max_deg = 0;
  for (std::uint32_t i = 0; i < owned_n; ++i) {
    auto ws = g.edge_weights_of(local.owned[i]);
    max_deg = std::max(max_deg, static_cast<std::uint32_t>(ws.size()));
    for (std::size_t k = 0; k < ws.size(); ++k) {
      nbr_w[halo.arc_begin(i) + k] = static_cast<double>(ws[k]);
    }
  }
  std::vector<double> ux(max_deg), uy(max_deg);  // gather scratch

  // The ghost exchanges send the current SoA positions; a ghost update
  // stores the exact position and the clamped SoA mirror. The near
  // exchange, to the 8-neighbourhood, runs every iteration; the far one,
  // to the ranks beyond it, once per stale block. (The paper uses an
  // allgather there; targeted messages carry the same information with
  // volume proportional to the far-spanning edges instead of P times
  // that, which matters at reduced graph scale where cells are tiny and
  // many edges span far cells.)
  const auto send = [&](std::uint32_t i) {
    return CoordMsg{local.owned[i], px[i], py[i]};
  };
  const auto store = [&](std::uint32_t j, const CoordMsg& msg) {
    local.ghost_pos[j] = geom::vec2(msg.x, msg.y);
    Vec2 c = lattice.clamp_to_neighbor(my_row, my_col, local.ghost_pos[j]);
    gx[j] = c[0];
    gy[j] = c[1];
  };
  const auto near = [&](std::uint32_t rank) {
    return grid_near(me, rank, local.cols);
  };
  const auto far = [&](std::uint32_t rank) { return !near(rank); };

  // Vec2 snapshot and masses for the per-iteration tree; both stay empty
  // (and so does the tree) when the own-cell correction is used instead.
  const bool use_tree = opt.local_quadtree && owned_n > 1;
  std::vector<Vec2> tree_pts(use_tree ? owned_n : 0);
  const std::span<const double> tree_mass =
      use_tree ? std::span<const double>(mass) : std::span<const double>();

  for (std::uint32_t it = 0; it < iterations; ++it) {
    const bool refresh = (it % std::max(1u, opt.stale_block)) == 0;
    if (refresh) {
      // Adaptive step update from the previous block's global energy.
      if (it > 0) {
        double energy = sub.allreduce(block_energy, comm::ReduceOp::kSum);
        if (energy < prev_energy) {
          if (++progress >= 2) {
            step = std::min(step * 1.1, max_step);
            progress = 0;
          }
        } else {
          step = std::max(step * 0.6, min_step);
          progress = 0;
        }
        prev_energy = energy;
        block_energy = 0.0;
      }
      // beta aggregates: allgather (m, m*x, m*y) per cell.
      double agg[3] = {my_mass, 0.0, 0.0};
      for (std::uint32_t i = 0; i < owned_n; ++i) {
        agg[1] += mass[i] * px[i];
        agg[2] += mass[i] * py[i];
      }
      auto all = sub.allgatherv(std::span<const double>(agg, 3));
      for (std::uint32_t r = 0; r < local.pl; ++r) {
        beta_mass[r] = all[3 * r];
        beta_pos[r] = beta_mass[r] > 0.0
                          ? geom::vec2(all[3 * r + 1] / beta_mass[r],
                                       all[3 * r + 2] / beta_mass[r])
                          : Vec2{};
      }
      // Far-spanning edge endpoints: one targeted exchange per block.
      count_ghost_traffic(sub, halo, far);
      const std::size_t far_work =
          graph::exchange_ghosts(sub, halo, send, store, far);
      sub.add_compute(static_cast<double>(far_work) +
                      static_cast<double>(local.pl));
    }

    // Nearest-neighbour boundary exchange (every iteration).
    count_ghost_traffic(sub, halo, near);
    graph::exchange_ghosts(sub, halo, send, store, near);

    // Inherited repulsion: force per unit mass on my cell's beta from all
    // other cells (paper eq. 1, vector form).
    Vec2 beta_force{};
    if (my_mass > 0.0) {
      for (std::uint32_t r = 0; r < local.pl; ++r) {
        if (r == me || beta_mass[r] <= 0.0) continue;
        beta_force += model.repulsive(beta_pos[me] - beta_pos[r], beta_mass[r]);
      }
    }
    sub.add_compute(10.0 * static_cast<double>(local.pl));

    if (use_tree) {
      for (std::uint32_t i = 0; i < owned_n; ++i) {
        tree_pts[i] = geom::vec2(px[i], py[i]);
      }
      sub.add_compute(4.0 * static_cast<double>(owned_n));
    }
    const geom::QuadTree tree(tree_pts, tree_mass);
    const double log_owned = std::log2(static_cast<double>(owned_n) + 2.0);

    double arc_work = 0.0;
    for (std::uint32_t i = 0; i < owned_n; ++i) {
      Vec2 f = beta_force * mass[i];
      if (use_tree) {
        // Intra-cell repulsion through a local Barnes-Hut pass: no
        // communication, O(log owned) per vertex.
        f += tree.accumulate_with(tree_pts[i], static_cast<std::int64_t>(i),
                                  opt.quadtree_theta,
                                  [&](const Vec2& delta, double m) {
                                    return model.repulsive(delta, m);
                                  }) *
             mass[i];
      } else if (beta_mass[me] > mass[i]) {
        // Own-cell correction (paper eq. 2): repelled from own beta, with
        // the vertex's own mass excluded from the aggregate.
        f += model.repulsive(geom::vec2(px[i], py[i]) - beta_pos[me],
                             beta_mass[me] - mass[i]) *
             mass[i];
      }
      const std::size_t begin = halo.arc_begin(i);
      const auto deg = static_cast<std::uint32_t>(halo.arc_begin(i + 1) - begin);
      arc_work += static_cast<double>(deg);
      // Gather pass: neighbour coordinates (owned exact, ghosts clamped
      // into the L1-nearest neighbouring sub-domain — the paper's ghost
      // rule) into dense scratch.
      for (std::uint32_t k = 0; k < deg; ++k) {
        const std::uint32_t r = slot[begin + k];
        if (r >= owned_n) {
          ux[k] = gx[r - owned_n];
          uy[k] = gy[r - owned_n];
        } else {
          ux[k] = px[r];
          uy[k] = py[r];
        }
      }
      // Accumulate pass: ForceModel::attractive scalarised over the
      // scratch, summed in edge order (identical operation order to the
      // Vec2 form; zeroing the contribution below 1e-12 reproduces the
      // early return).
      const double xi = px[i];
      const double yi = py[i];
      double fx = f[0];
      double fy = f[1];
      for (std::uint32_t k = 0; k < deg; ++k) {
        double dx = ux[k] - xi;
        double dy = uy[k] - yi;
        double d = std::sqrt(dx * dx + dy * dy);
        double s = d / model.K;
        double cx = dx * s;
        double cy = dy * s;
        if (d < 1e-12) {
          cx = 0.0;
          cy = 0.0;
        }
        fx += cx * nbr_w[begin + k];
        fy += cy * nbr_w[begin + k];
      }
      force[i] = geom::vec2(fx, fy);
    }
    // Apply moves after computing all forces (Jacobi update: owned
    // vertices see each other's previous positions, like ghosts do).
    for (std::uint32_t i = 0; i < owned_n; ++i) {
      Vec2 move = clipped_move(force[i], step);
      block_energy += move.norm();
      px[i] += move[0];
      py[i] += move[1];
    }
    step = std::max(step * in_block_decay, min_step);
    double local_rep_work =
        use_tree ? 12.0 * static_cast<double>(owned_n) * log_owned
                 : 10.0 * static_cast<double>(owned_n);
    sub.add_compute(8.0 * arc_work + local_rep_work +
                    4.0 * static_cast<double>(owned_n));
  }

  // Sync the canonical AoS store with the final SoA coordinates.
  for (std::uint32_t i = 0; i < owned_n; ++i) {
    local.pos[i] = geom::vec2(px[i], py[i]);
  }
}

/// Host-call thunk: runs the checkpoint's persist hook in the process
/// that owns the canonical checkpoint object.
void persist_checkpoint(void* ctx, const std::byte* /*data*/,
                        std::size_t /*len*/) {
  auto& ckpt = *static_cast<EmbedCheckpoint*>(ctx);
  if (ckpt.persist) ckpt.persist(ckpt);
}

/// Gathers the level's full coordinate array into `ckpt` (every rank
/// receives the gather; rank 0 of the active sub-communicator writes the
/// shared slot, atomically w.r.t. the cooperative scheduler). Traced
/// under stage "checkpoint" so the fault-tolerance overhead is
/// reportable separately from the embedding itself.
void write_checkpoint(comm::Comm& sub, const LevelLocal& local, VertexId n,
                      EmbedCheckpoint& ckpt) {
  const std::string prev = sub.stage();
  sub.set_stage(obs::stages::kCheckpoint);
  obs::Span span(sub, obs::stages::kCheckpoint, "fault");
  std::vector<CoordMsg> out;
  out.reserve(local.owned.size());
  for (std::size_t i = 0; i < local.owned.size(); ++i) {
    out.push_back({local.owned[i], local.pos[i][0], local.pos[i][1]});
  }
  std::vector<std::size_t> counts;
  auto all = sub.allgatherv(std::span<const CoordMsg>(out), &counts);
  if (sub.rank() == 0) {
    // Single-writer slot: ordered against the other ranks' reads (at
    // resume entry / restore) by the allgather above and the shrink that
    // precedes any recovery read. Object-granular annotation — the inner
    // buffers reallocate, so the struct's own range is the stable name.
    // Built locally, then published through the shared-memory seam: on
    // the process backend the writer may be a child whose in-image copy
    // of `ckpt` is stale, and only the seam reaches the canonical object.
    analysis::note_shared_write(sub, ckpt, "embed/checkpoint");
    std::vector<Vec2> coords(n, Vec2{});
    std::vector<std::uint32_t> owner(n, 0);
    // The gather is concatenated in group-rank order, so the counts
    // vector identifies each message's sender — the ownership map rides
    // along at zero extra modeled cost.
    std::size_t at = 0;
    for (std::uint32_t r = 0; r < counts.size(); ++r) {
      for (std::size_t i = 0; i < counts[r]; ++i, ++at) {
        const CoordMsg& msg = all[at];
        coords[msg.id] = geom::vec2(msg.x, msg.y);
        owner[msg.id] = r;
      }
    }
    analysis::shared_assign_vec(sub, ckpt.coords, std::move(coords),
                                "embed/checkpoint");
    analysis::shared_assign_vec(sub, ckpt.owner, std::move(owner),
                                "embed/checkpoint");
    analysis::shared_store(sub, ckpt.level, local.level, "embed/checkpoint");
    analysis::shared_store(sub, ckpt.pl, local.pl, "embed/checkpoint");
    analysis::shared_store(sub, ckpt.box, local.box, "embed/checkpoint");
    analysis::shared_store(sub, ckpt.valid, true, "embed/checkpoint");
    obs::count(sub, "fault/checkpoints");
    // The persist hook runs where the canonical checkpoint lives (the
    // supervisor, on the process backend): it reads the fields published
    // above and bumps host-side bookkeeping the caller inspects.
    sub.host_call_store(&persist_checkpoint, &ckpt, nullptr, 0);
  }
  sub.add_compute(static_cast<double>(all.size()));
  sub.set_stage(prev);
}

/// Rebuilds a level's distributed state from a checkpoint: fetches the
/// saved coordinates (modeled as a broadcast — the cost of reading a
/// replicated snapshot) and redistributes every vertex over the current
/// grid, which may be smaller than the one that wrote the checkpoint.
/// This is how lost ranks' vertices find their new owners.
LevelLocal restore_level(comm::Comm& sub, const EmbedCheckpoint& ckpt,
                         std::size_t lvl, std::uint32_t pl, std::uint32_t rows,
                         std::uint32_t cols, const CsrGraph& g,
                         analysis::SharedSpan<std::uint32_t> owner) {
  const std::string prev = sub.stage();
  sub.set_stage(obs::stages::kRecover);
  obs::Span span(sub, obs::stages::kRecover, "fault");
  LevelLocal init;
  init.level = lvl;
  init.pl = pl;
  init.rows = rows;
  init.cols = cols;
  // Every rank reads the checkpoint object below (pl/owner on all ranks,
  // coords on rank 0); the writer's allgather + the recovery shrink
  // order those reads after the write. All reads go through the seam —
  // on the process backend a child's own image of the checkpoint is
  // stale (the writer published into the supervisor's copy).
  analysis::note_shared_read(sub, ckpt, "embed/checkpoint");
  std::vector<Vec2> coords;
  if (sub.rank() == 0) {
    coords = analysis::shared_fetch_vec(sub, ckpt.coords, "embed/checkpoint");
  }
  coords = sub.broadcast_vec(std::span<const Vec2>(coords), 0);
  SP_ASSERT(coords.size() == g.num_vertices());
  const std::uint32_t ckpt_pl =
      analysis::shared_load(sub, ckpt.pl, "embed/checkpoint");
  const std::vector<std::uint32_t> ckpt_owner =
      analysis::shared_fetch_vec(sub, ckpt.owner, "embed/checkpoint");
  if (ckpt_pl == pl && ckpt_owner.size() == g.num_vertices()) {
    // ---- Exact restore (cold restart on the same rank count) ----
    // The checkpoint's own box and ownership map reproduce the level's
    // state as projection left it, bit for bit. That exactness matters:
    // the finer-level grids are sampled stride-wise from each rank's own
    // children, so any redistribution here would perturb the eventual
    // partition. The balanced grid is left unbuilt — only smoothing needs
    // it, and the resumed level is already smoothed.
    init.box = analysis::shared_load(sub, ckpt.box, "embed/checkpoint");
    // Shared-directory discipline: every entry has exactly one owner, so
    // each rank writes only its own entries (distinct indices), and the
    // barrier below publishes the completed directory.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (ckpt_owner[v] == sub.rank()) {
        owner.write(sub, v, ckpt_owner[v]);
        init.owned.push_back(v);
        init.pos.push_back(coords[v]);
      }
    }
    sub.add_compute(2.0 * static_cast<double>(coords.size()));
    sub.barrier();  // owner directory complete
    sub.set_stage(prev);
    return init;
  }
  // Recompute the box from the coordinates (positions drift outside the
  // smoothing-time box) and rebuild a load-balanced grid for the current
  // rank count with the same proportional sampling as projection.
  double ext[4] = {1e300, 1e300, 1e300, 1e300};
  for (const Vec2& c : coords) {
    ext[0] = std::min(ext[0], c[0]);
    ext[1] = std::min(ext[1], c[1]);
    ext[2] = std::min(ext[2], -c[0]);
    ext[3] = std::min(ext[3], -c[1]);
  }
  init.box.lo = geom::vec2(ext[0], ext[1]);
  init.box.hi = geom::vec2(-ext[2], -ext[3]);
  init.box = init.box.inflated(0.05);
  const double n_level = static_cast<double>(coords.size());
  const double sample_target = std::min(n_level, 24.0 * pl + 512.0);
  const std::size_t stride = std::max<std::size_t>(
      static_cast<std::size_t>(n_level / sample_target), 1);
  std::vector<Vec2> sample;
  for (std::size_t v = 0; v < coords.size(); v += stride) {
    sample.push_back(coords[v]);
  }
  init.grid = std::make_shared<geom::BalancedGrid>(
      init.box, rows, cols, std::span<const Vec2>(sample));
  // Every rank derives the same ownership deterministically, but the
  // directory is shared — so each rank publishes only its own entries
  // (distinct indices; every vertex has exactly one owner in [0, pl),
  // and all of those ranks are active here), and the barrier below
  // makes the completed directory visible before enter_level reads it.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t cell = init.grid->cell_index(coords[v]);
    if (cell == sub.rank()) {
      owner.write(sub, v, cell);
      init.owned.push_back(v);
      init.pos.push_back(coords[v]);
    }
  }
  sub.add_compute(2.0 * n_level);
  sub.barrier();  // owner directory complete
  sub.set_stage(prev);
  return init;
}

}  // namespace

// ---------------------------------------------------------------------------
// Multilevel driver
// ---------------------------------------------------------------------------

RankEmbedding lattice_embed(comm::Comm& world, EmbedWorkspace& workspace,
                            const LatticeEmbedOptions& opt,
                            EmbedCheckpoint* checkpoint) {
  const std::uint32_t P = world.nranks();
  SP_ASSERT_MSG((P & (P - 1)) == 0, "lattice_embed requires power-of-two P");
  const std::size_t levels = workspace.num_levels();
  const std::size_t coarsest = levels - 1;
  const coarsen::Hierarchy& hierarchy = workspace.hierarchy();

  bool resume = false;
  std::size_t start_level = coarsest;
  if (checkpoint != nullptr) {
    // All ranks inspect the shared checkpoint to agree on resume-vs-fresh
    // — through the seam, since a recovered process-backend child's own
    // image of the checkpoint predates the write.
    analysis::note_shared_read(world, *checkpoint, "embed/checkpoint");
    resume =
        analysis::shared_load(world, checkpoint->valid, "embed/checkpoint");
  }
  if (resume) {
    start_level =
        analysis::shared_load(world, checkpoint->level, "embed/checkpoint");
    SP_ASSERT(start_level < levels);
  }

  LevelLocal local;

  for (std::size_t lvl = start_level;; --lvl) {
    const std::uint32_t pl = ranks_at_level(P, lvl);
    const bool active = world.rank() < pl;
    comm::Comm sub = world.split(active ? 0u : 1u, world.rank());
    const CsrGraph& g = hierarchy.graph_at(lvl);

    if (active) {
      obs::Span level_span(sub, obs::stages::kEmbed, "level",
                           static_cast<std::int32_t>(lvl));
      auto [rows, cols] = grid_shape(pl);
      if (resume && lvl == start_level) {
        // ---- Resume: rebuild this (already-smoothed) level from the
        // checkpoint; the finer levels are projected from it as usual. ----
        auto owner = workspace.owner(lvl);
        local = restore_level(sub, *checkpoint, lvl, pl, rows, cols, g, owner);
        // One bulk snapshot of the completed directory (restore_level
        // barriers before returning) instead of a per-vertex read.
        const std::vector<std::uint32_t> owner_now = owner.snapshot(sub);
        enter_level(
            local, g, [&](VertexId u) { return owner_now[u]; }, sub);
      } else if (lvl == coarsest) {
        // Deterministic random initial embedding in the unit box; every
        // rank derives the same positions, so ownership needs no
        // communication.
        LevelLocal init;
        init.level = lvl;
        init.pl = pl;
        init.rows = rows;
        init.cols = cols;
        init.box.lo = geom::vec2(0, 0);
        init.box.hi = geom::vec2(1, 1);
        // The coarsest graph is small: every rank derives all positions,
        // builds the same balanced grid, and reads off its own cell.
        std::vector<Vec2> all_pos(g.num_vertices());
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          all_pos[v] = geom::vec2(unit_hash(opt.seed, v, 1),
                                  unit_hash(opt.seed, v, 2));
        }
        init.grid = std::make_shared<geom::BalancedGrid>(
            init.box.inflated(1e-6), rows, cols,
            std::span<const Vec2>(all_pos));
        // Every active rank derives the identical full map, so keep it
        // rank-local: concurrent same-value stores to the shared
        // directory would still be a write-write race (no happens-before
        // between them), and nothing reads the coarsest directory after
        // this block anyway.
        std::vector<std::uint32_t> coarse_owner(g.num_vertices());
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          coarse_owner[v] = init.grid->cell_index(all_pos[v]);
          if (coarse_owner[v] == sub.rank()) {
            init.owned.push_back(v);
            init.pos.push_back(all_pos[v]);
          }
        }
        sub.add_compute(static_cast<double>(g.num_vertices()));
        local = std::move(init);
        enter_level(
            local, g, [&](VertexId u) { return coarse_owner[u]; }, sub);
        smooth_level(sub, local, g, opt, opt.coarsest_iterations,
                     /*initial_step_factor=*/2.0, /*final_step_fraction=*/1e-3);
      } else {
        // Project from level lvl+1: children placed around their parent
        // (coordinates doubled, deterministic jitter), then redistributed
        // by lattice cell. The lattice box is recomputed from the actual
        // projected positions with one min/max reduction — the layout
        // drifts and contracts during smoothing, and decomposing a stale
        // box would pack most of the graph into a few cells.
        LevelLocal next;
        next.level = lvl;
        next.pl = pl;
        next.rows = rows;
        next.cols = cols;
        const bool had_coarse = local.level == lvl + 1 && !local.owned.empty();
        std::vector<CoordMsg> children;
        // Slots store {min x, min y, min -x, min -y}: one kMin reduction
        // yields both box corners.
        double ext[4] = {1e300, 1e300, 1e300, 1e300};
        if (had_coarse) {
          double work = 0;
          for (std::uint32_t i = 0; i < local.owned.size(); ++i) {
            Vec2 parent = local.pos[i] * 2.0;
            for (VertexId child : workspace.children(lvl + 1, local.owned[i])) {
              children.push_back({child, parent[0], parent[1]});
              work += 1.0;
            }
            ext[0] = std::min(ext[0], parent[0]);
            ext[1] = std::min(ext[1], parent[1]);
            ext[2] = std::min(ext[2], -parent[0]);
            ext[3] = std::min(ext[3], -parent[1]);
          }
          sub.add_compute(work);
        }
        auto ext_min = sub.allreduce_vec(std::span<const double>(ext, 4),
                                         comm::ReduceOp::kMin);
        Box fine_box;
        fine_box.lo = geom::vec2(ext_min[0], ext_min[1]);
        fine_box.hi = geom::vec2(-ext_min[2], -ext_min[3]);
        next.box = fine_box.inflated(0.05);
        const double jitter =
            0.15 * ForceModel::natural_length(
                       std::max(next.box.width() * next.box.height(), 1e-12),
                       g.num_vertices());
        // Jitter the children into their final projected positions, then
        // gather a proportional position sample so every rank builds the
        // same load-balanced grid (the paper's RCB mapping step).
        for (CoordMsg& msg : children) {
          msg.x += (unit_hash(opt.seed, msg.id, 3) - 0.5) * jitter;
          msg.y += (unit_hash(opt.seed, msg.id, 4) - 0.5) * jitter;
        }
        const double n_level = static_cast<double>(g.num_vertices());
        const double sample_target =
            std::min(n_level, 24.0 * pl + 512.0);
        std::vector<Vec2> my_sample;
        if (!children.empty()) {
          auto quota = static_cast<std::size_t>(
              std::ceil(sample_target * static_cast<double>(children.size()) /
                        n_level)) +
              1;
          std::size_t stride = std::max<std::size_t>(children.size() / quota, 1);
          for (std::size_t i = 0; i < children.size(); i += stride) {
            my_sample.push_back(geom::vec2(children[i].x, children[i].y));
          }
        }
        auto sample = sub.allgatherv(std::span<const Vec2>(my_sample));
        next.grid = std::make_shared<geom::BalancedGrid>(
            next.box, rows, cols, std::span<const Vec2>(sample));
        sub.add_compute(static_cast<double>(sample.size()) * 8.0);

        std::vector<std::pair<std::uint32_t, std::vector<CoordMsg>>> out;
        std::vector<std::vector<CoordMsg>> by_dest(pl);
        for (const CoordMsg& msg : children) {
          by_dest[next.grid->cell_index(geom::vec2(msg.x, msg.y))].push_back(
              msg);
        }
        for (std::uint32_t dest = 0; dest < pl; ++dest) {
          if (!by_dest[dest].empty()) {
            out.emplace_back(dest, std::move(by_dest[dest]));
          }
        }
        auto in = sub.exchange_typed(out);
        std::vector<CoordMsg> received;
        for (auto& [src, payload] : in) {
          (void)src;
          received.insert(received.end(), payload.begin(), payload.end());
        }
        std::sort(received.begin(), received.end(),
                  [](const CoordMsg& a, const CoordMsg& b) { return a.id < b.id; });
        next.owned.reserve(received.size());
        next.pos.reserve(received.size());
        auto owner = workspace.owner(lvl);
        for (const CoordMsg& msg : received) {
          next.owned.push_back(msg.id);
          next.pos.push_back(geom::vec2(msg.x, msg.y));
          owner.write(sub, msg.id, sub.rank());
        }
        sub.barrier();  // owner directory complete
        local = std::move(next);
        // Bulk snapshot, same reasoning as the resume path above.
        const std::vector<std::uint32_t> owner_now = owner.snapshot(sub);
        enter_level(
            local, g, [&](VertexId u) { return owner_now[u]; }, sub);
        smooth_level(sub, local, g, opt, opt.smooth_iterations,
                     /*initial_step_factor=*/0.5, /*final_step_fraction=*/0.05);
      }
      // Level boundary: the natural checkpoint granularity (a crash mid-
      // smoothing rolls back to the last completed level). A restored
      // level is already identical to its checkpoint — skip rewriting it.
      if (checkpoint && !(resume && lvl == start_level)) {
        write_checkpoint(sub, local, g.num_vertices(), *checkpoint);
      }
      if (lvl == 0) refresh_all_ghosts(sub, local);
    }
    if (lvl == 0) break;
  }

  RankEmbedding result;
  if (world.rank() < ranks_at_level(P, 0)) {
    result.owned = std::move(local.owned);
    result.pos = std::move(local.pos);
    result.ghost_ids = local.halo.ghosts();
    result.ghost_pos = std::move(local.ghost_pos);
    result.ghost_owner = local.halo.ghost_owners();
    auto [rows, cols] = grid_shape(ranks_at_level(P, 0));
    result.grid_rows = rows;
    result.grid_cols = cols;
    result.box = local.box;
  }
  return result;
}

std::vector<Vec2> gather_embedding(comm::Comm& world, const RankEmbedding& mine,
                                   VertexId n) {
  std::vector<CoordMsg> out;
  out.reserve(mine.owned.size());
  for (std::size_t i = 0; i < mine.owned.size(); ++i) {
    out.push_back({mine.owned[i], mine.pos[i][0], mine.pos[i][1]});
  }
  auto all = world.allgatherv(std::span<const CoordMsg>(out));
  std::vector<Vec2> coords(n, Vec2{});
  for (const CoordMsg& msg : all) {
    SP_ASSERT(msg.id < n);
    coords[msg.id] = geom::vec2(msg.x, msg.y);
  }
  return coords;
}

}  // namespace sp::embed
