#include "core/scalapart.hpp"

#include <algorithm>
#include <filesystem>

#include "analysis/pipeline_check.hpp"
#include "analysis/shared.hpp"
#include "coarsen/hierarchy.hpp"
#include "coarsen/parallel_matching.hpp"
#include "comm/engine.hpp"
#include "core/checkpoint.hpp"
#include "exec/executor.hpp"
#include "graph/distributed_graph.hpp"
#include "obs/flight.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"

namespace sp::core {

using graph::Bipartition;
using graph::CsrGraph;
using graph::VertexId;

namespace {

std::uint32_t p_at_level(std::uint32_t P, std::size_t level) {
  std::uint32_t shift = 2 * static_cast<std::uint32_t>(level);
  return shift >= 32 ? 1u : std::max(P >> shift, 1u);
}

StageBreakdown breakdown_from(const comm::RunStats& stats) {
  StageBreakdown b;
  auto coarsen = stats.stage_max(obs::stages::kCoarsen);
  auto embed = stats.stage_max(obs::stages::kEmbed);
  auto part = stats.stage_max(obs::stages::kPartition);
  b.coarsen_seconds = coarsen.total();
  b.embed_seconds = embed.total();
  b.partition_seconds = part.total();
  b.embed_comm_seconds = embed.comm_seconds;
  b.embed_compute_seconds = embed.compute_seconds;
  return b;
}

/// Block-distributes externally-supplied coordinates over the ranks of
/// `world` and fills in the halo (ghost coordinates are paid for with one
/// exchange, exactly as when the coordinates arrive with the graph). The
/// redistribution path of the coordinate entry point.
embed::RankEmbedding embedding_from_coords(comm::Comm& world,
                                           const CsrGraph& g,
                                           std::span<const geom::Vec2> coords) {
  graph::LocalView view(g, world.rank(), world.nranks());
  const graph::Halo& halo = view.halo();
  embed::RankEmbedding emb;
  emb.owned.resize(view.num_local());
  emb.pos.resize(view.num_local());
  for (VertexId i = 0; i < view.num_local(); ++i) {
    emb.owned[i] = view.to_global(i);
    emb.pos[i] = coords[view.to_global(i)];
  }
  struct CoordMsg {
    VertexId id;
    double x, y;
  };
  std::vector<std::pair<std::uint32_t, std::vector<CoordMsg>>> out;
  for (std::size_t k = 0; k < halo.send_ranks().size(); ++k) {
    std::vector<CoordMsg> payload;
    for (std::uint32_t i : halo.send_list(k)) {
      payload.push_back({emb.owned[i], emb.pos[i][0], emb.pos[i][1]});
    }
    out.emplace_back(halo.send_ranks()[k], std::move(payload));
  }
  auto in = world.exchange_typed(out);
  emb.ghost_ids = halo.ghosts();
  emb.ghost_owner = halo.ghost_owners();
  emb.ghost_pos.assign(emb.ghost_ids.size(), geom::Vec2{});
  for (const auto& [src, payload] : in) {
    (void)src;
    for (const CoordMsg& msg : payload) {
      const VertexId gi = halo.ghost_index(msg.id);
      if (gi != graph::kInvalidVertex) {
        emb.ghost_pos[gi] = geom::vec2(msg.x, msg.y);
      }
    }
  }
  return emb;
}

/// The engine configuration of both entry points.
comm::BspEngine::Options engine_options(const ScalaPartOptions& opt) {
  comm::BspEngine::Options eng_opt;
  eng_opt.nranks = opt.nranks;
  eng_opt.model = opt.cost_model;
  eng_opt.faults = opt.faults;
  eng_opt.detector = opt.detector;
  eng_opt.schedule = opt.schedule;
  eng_opt.schedule_seed = opt.schedule_seed;
  eng_opt.backend = opt.backend;
  eng_opt.threads = opt.threads;
  return eng_opt;
}

/// Pipeline body shared by the fresh-start and cold-resume entry points.
/// `preloaded`, when non-null, seeds the embed checkpoint from a durable
/// file so the embedding resumes at the saved level.
ScalaPartResult scalapart_run(const CsrGraph& g, const ScalaPartOptions& opt,
                              const PipelineCheckpoint* preloaded) {
  SP_ASSERT_MSG((opt.nranks & (opt.nranks - 1)) == 0,
                "nranks must be a power of two");
  const VertexId n = g.num_vertices();
  ScalaPartResult result;
  result.part = Bipartition(n);
  if (n <= 2) {
    // n == 2: the only balanced bipartition (also the optimal one); the
    // full pipeline would collapse both vertices onto one embedding point
    // and trip the balance invariant.
    if (n == 2) result.part.side[1] = 1;
    result.report = evaluate(g, result.part);
    return result;
  }

  // Reference hierarchy: the same heavy-edge-matching coarsening the BSP
  // ranks execute, built once and shared read-only (see DESIGN.md on the
  // shared-structure convention).
  coarsen::HierarchyOptions hopt;
  hopt.coarsest_size =
      opt.coarsest_size != 0
          ? opt.coarsest_size
          : std::clamp<graph::VertexId>(n / 256, 64, 4096);
  hopt.rounds_per_level = opt.hierarchy_rounds;
  hopt.seed = opt.seed;
  coarsen::Hierarchy hierarchy = coarsen::Hierarchy::build(g, hopt);
  // Checkpoint: the coarsening hierarchy (every level's CSR, weight
  // conservation, exact cross-edge aggregation) and each level's halo
  // structure under the rank count that will process it. Validated once
  // here, not per rank inside the SPMD program.
  SP_ANALYSIS_CHECK("coarsen/hierarchy", analysis::validate_hierarchy(hierarchy));
#ifdef SP_ANALYSIS
  for (std::size_t level = 0; level + 1 < hierarchy.num_levels(); ++level) {
    SP_ANALYSIS_CHECK("coarsen/distributed",
                      analysis::validate_distributed_graph(
                          hierarchy.graph_at(level),
                          p_at_level(opt.nranks, level)));
  }
#endif
  embed::EmbedWorkspace workspace(hierarchy);

  embed::LatticeEmbedOptions embed_opt = opt.embed;
  embed_opt.seed = opt.seed ^ 0xE3BEDull;
  partition::ParallelGmtOptions gmt_opt = opt.gmt;
  gmt_opt.seed = opt.seed ^ (0x6E0ull * (opt.nranks + 1));

  // Shared result slots (distinct-index writes + barrier discipline);
  // every in-run access goes through the race-audited annotations.
  std::vector<std::uint8_t> side(n, 0);
  analysis::SharedSpan<std::uint8_t> shared_side(side.data(), side.size(),
                                                "core/side");
  graph::Weight cut = 0;
  std::size_t strip_size = 0;
  std::vector<geom::Vec2> coords;
  bool completed = false;

  // Fault-tolerance shared state. Checkpointing is only worth paying for
  // when something can actually kill a rank (planned crash or an enabled
  // failure detector) — or when the caller asked for durable checkpoints.
  const bool may_kill =
      !opt.faults.crashes.empty() || opt.detector.enabled();
  const bool tolerate = opt.recover_on_failure && may_kill;
  const bool durable = !opt.checkpoint_dir.empty();
  std::size_t coarsen_ckpt = 0;  // levels below this index are done
  embed::EmbedCheckpoint embed_ckpt;
  std::uint32_t recoveries = 0;
  std::uint32_t final_active = opt.nranks;
  std::uint32_t persisted = 0;

  if (preloaded) embed_ckpt = preloaded->to_embed_checkpoint();
  if (durable) {
    std::filesystem::create_directories(opt.checkpoint_dir);
    const std::string path = checkpoint_path(opt.checkpoint_dir);
    // Called by rank 0 of the active sub-communicator after each
    // checkpoint gather. Writers are serialized: a new writer can only
    // take over via a shrink, which the previous writer either joins
    // (its earlier persist happened-before, by program order through the
    // engine lock) or died before reaching. Host-side I/O only — no
    // modeled time.
    embed_ckpt.persist = [&, path](const embed::EmbedCheckpoint& c) {
      PipelineCheckpoint pc;
      pc.num_vertices = n;
      pc.num_edges = g.num_edges();
      pc.seed = opt.seed;
      pc.nranks = opt.nranks;
      pc.level = c.level;
      pc.pl = c.pl;
      pc.box = c.box;
      pc.coords = c.coords;
      pc.owner = c.owner;
      save_checkpoint(path, pc);
      ++persisted;
    };
  }

  comm::BspEngine engine(engine_options(opt));

  // Flight recorder (DESIGN.md §9): reuse an enclosing recorder when one
  // is installed (the chaos harness does this to own the dump), otherwise
  // install our own for the duration of the run. Recording only *reads*
  // rank state — partitions, clocks, and fingerprints are bit-identical
  // with it on or off.
  std::optional<obs::flight::FlightRecorder> own_flight;
  std::optional<obs::flight::ScopedFlightRecording> flight_scope;
  obs::flight::FlightRecorder* flight = obs::flight::FlightRecorder::current();
  if (flight == nullptr && opt.flight_capacity != 0) {
    own_flight.emplace(opt.nranks, opt.flight_capacity);
    flight_scope.emplace(*own_flight);
    flight = &*own_flight;
  }
  if (flight != nullptr) {
    flight->set_meta("program", "scalapart");
    flight->set_meta("seed", std::to_string(opt.seed));
    flight->set_meta("nranks", std::to_string(opt.nranks));
    flight->set_meta("backend", exec::backend_name(opt.backend));
    flight->set_meta("threads", std::to_string(opt.threads));
    flight->set_meta("schedule_seed", std::to_string(opt.schedule_seed));
    flight->set_meta("fault_crashes", std::to_string(opt.faults.crashes.size()));
    flight->set_meta("fault_stragglers",
                     std::to_string(opt.faults.stragglers.size()));
    flight->set_meta("fault_messages",
                     std::to_string(opt.faults.message_faults.size()));
    flight->set_meta("fault_seed", std::to_string(opt.faults.seed));
    flight->set_meta("detector_deadline",
                     std::to_string(opt.detector.deadline_seconds));
    flight->set_meta("recover_on_failure",
                     opt.recover_on_failure ? "true" : "false");
    flight->set_meta("max_recoveries", std::to_string(opt.max_recoveries));
  }
  auto flight_dump = [&](const std::string& reason) {
    if (flight != nullptr) {
      obs::flight::dump_abnormal(*flight, opt.flight_dir, reason);
    }
  };

  auto program = [&](comm::Comm& world0) {
    comm::Comm world = world0;
    // Root of the rank's span tree; spans reference the `world` variable
    // (not its current value), so they survive shrink/split reassignment
    // — world_rank and the clock source never change.
    obs::Span pipeline_span(world, "scalapart", "pipeline");
    bool need_recover = false;
    // Rank-local recovery count: a shared counter would race under the
    // threads backend (the budget check runs before the shrink that
    // would synchronize it). Every survivor participates in every
    // recovery round, so the local counts agree.
    std::uint32_t my_recoveries = 0;
    // Engine-wide failure list as of the last observed RankFailedError
    // (order of death); carried into RecoveryExhaustedError so callers
    // see who died even when the budget check aborts before the shrink.
    std::vector<std::uint32_t> my_failed;
    for (;;) {
      try {
        if (need_recover) {
          ++my_recoveries;
          if (opt.max_recoveries != 0 &&
              my_recoveries > opt.max_recoveries) {
            RecoveryStats rs;
            rs.failed_ranks = my_failed;
            rs.recoveries = my_recoveries - 1;
            throw RecoveryExhaustedError(
                "recovery budget (" + std::to_string(opt.max_recoveries) +
                    ") exceeded",
                rs);
          }
          // ---- Shrink-and-recover (traced under stage "recover"). ----
          world.set_stage(obs::stages::kRecover);
          obs::Span recover_span(world, obs::stages::kRecover, "stage");
          obs::mark(world, "shrink-and-recover", "fault");
          world = world.shrink();
          // lattice_embed needs a power-of-two rank count: the largest
          // power-of-two prefix of the survivors keeps computing; the
          // remainder retire as spares.
          std::uint32_t p2 = 1;
          while (p2 * 2 <= world.nranks()) p2 *= 2;
          const bool active = world.rank() < p2;
          if (world.rank() == 0) {
            // Successive writers (rank 0 of each shrunken world) are
            // ordered by the shrink every survivor just joined. The
            // increment reads through the seam too: after the original
            // rank 0 died, the new writer may be a process-backend child
            // whose own image of the counter is stale.
            analysis::shared_store(
                world, recoveries,
                analysis::shared_load(world, recoveries, "core/recoveries") +
                    1,
                "core/recoveries");
            analysis::shared_store(world, final_active, p2,
                                   "core/final_active");
            obs::count(world, "fault/recoveries");
            obs::gauge(world, "fault/active_ranks", p2);
          }
          comm::Comm active_comm =
              world.split(active ? 0u : 1u, world.rank());
          if (!active) return;  // spare: no further part in the pipeline
          world = active_comm;
          need_recover = false;
        }
        const std::uint32_t P = world.nranks();

        // ---- Coarsening: distributed heavy-edge matching per level. ----
        world.set_stage(obs::stages::kCoarsen);
        {
          obs::Span stage_span(world, obs::stages::kCoarsen, "stage");
          for (std::size_t level = analysis::shared_load(world, coarsen_ckpt,
                                                         "core/coarsen_ckpt");
               level + 1 < hierarchy.num_levels(); ++level) {
            obs::Span level_span(world, obs::stages::kCoarsen, "level",
                                 static_cast<std::int32_t>(level));
            const std::uint32_t pl = p_at_level(P, level);
            const bool active = world.rank() < pl;
            comm::Comm sub = world.split(active ? 0u : 1u, world.rank());
            // This split completing means every rank finished the previous
            // level; a retry never needs to re-run levels below here. (The
            // coarse hierarchy itself is shared read-only, so the coarsen
            // checkpoint is just this index.)
            if (world.rank() == 0) {
              analysis::shared_store(world, coarsen_ckpt, level,
                                     "core/coarsen_ckpt");
            }
            if (!active) continue;
            const CsrGraph& level_graph = hierarchy.graph_at(level);
            graph::LocalView view(level_graph, sub.rank(), pl);
            auto match = coarsen::distributed_matching(
                sub, view, opt.matching_rounds, opt.seed + level);
            if (obs::active()) {
              // Match rate per level: matched/vertex counters, ratio at
              // query time (keeps increments integral, hence sums exact).
              double matched = 0.0;
              for (VertexId v = 0; v < view.num_local(); ++v) {
                if (match.partner[v] != view.to_global(v)) matched += 1.0;
              }
              const std::string lvl = std::to_string(level);
              obs::count(sub, "coarsen/matched.L" + lvl, matched);
              obs::count(sub, "coarsen/vertices.L" + lvl,
                         static_cast<double>(view.num_local()));
              obs::count(sub, "coarsen/rounds.L" + lvl,
                         static_cast<double>(match.rounds_used));
            }
            // The retained-level step contracts twice (intermediate halved
            // graph plus its matching); charge the intermediate round's
            // compute, whose communication profile mirrors the first at
            // half the volume.
            double arcs_local = 0;
            for (VertexId v = 0; v < view.num_local(); ++v) {
              arcs_local += static_cast<double>(view.neighbors(v).size());
            }
            sub.add_compute(arcs_local * 4.0 /*contract*/ +
                            arcs_local * 1.5 /*intermediate matching+contract*/);
          }
        }

        // ---- Multilevel fixed-lattice embedding. ----
        world.set_stage(obs::stages::kEmbed);
        embed::RankEmbedding emb;
        {
          obs::Span stage_span(world, obs::stages::kEmbed, "stage");
          emb = embed::lattice_embed(
              world, workspace, embed_opt,
              (tolerate || durable || preloaded) ? &embed_ckpt : nullptr);
        }
        // Checkpoint: each rank's slice of the embedding (alignment,
        // finiteness, owned/ghost disjointness) before partitioning
        // consumes it.
        SP_ANALYSIS_CHECK("embed/rank_embedding",
                          analysis::validate_rank_embedding(emb));

        // ---- Parallel geometric partitioning + strip refinement. ----
        world.set_stage(obs::stages::kPartition);
        partition::ParallelGmtResult gmt;
        {
          obs::Span stage_span(world, obs::stages::kPartition, "stage");
          gmt = partition::parallel_gmt(world, g, emb, gmt_opt);
        }
        for (std::size_t i = 0; i < emb.owned.size(); ++i) {
          // Distinct indices: each vertex has exactly one owner.
          shared_side.write(world, emb.owned[i], gmt.side[i]);
        }

        // ---- Result collection (not part of the timed pipeline). ----
        world.set_stage(obs::stages::kOutput);
        {
          obs::Span stage_span(world, obs::stages::kOutput, "stage");
          auto gathered = embed::gather_embedding(world, emb, n);
          if (world.rank() == 0) {
            analysis::shared_assign_vec(world, coords, std::move(gathered),
                                        "core/coords");
            analysis::shared_store(world, cut, gmt.cut, "core/cut");
            analysis::shared_store(world, strip_size, gmt.strip_size,
                                   "core/strip_size");
            analysis::shared_store(world, completed, true, "core/completed");
          }
          world.barrier();
        }
        return;
      } catch (const comm::RankFailedError& e) {
        if (!opt.recover_on_failure) throw;
        my_failed = e.failed_ranks();
        need_recover = true;
      }
    }
  };

  comm::RunStats stats;
  try {
    stats = engine.run(program);
  } catch (RecoveryExhaustedError& e) {
    // Budget exceeded inside a rank body: fill in what the shared slots
    // know (the thrower could only see its own counters) and re-raise.
    e.stats.recoveries = std::max(e.stats.recoveries, recoveries);
    e.stats.final_active_ranks = final_active;
    e.stats.checkpoints_persisted = persisted;
    e.stats.resumed_from_disk = preloaded != nullptr;
    flight_dump("RecoveryExhaustedError: " + std::string(e.what()));
    throw;
  } catch (const comm::RankFailedError& e) {
    if (!opt.recover_on_failure) {
      flight_dump("RankFailedError: " + std::string(e.what()));
      throw;
    }
    // Recovery was on but the engine still surfaced a failure: every
    // rank died. Structured error, not an unhandled unwind.
    RecoveryStats rs;
    rs.failed_ranks = e.failed_ranks();
    rs.recoveries = recoveries;
    rs.final_active_ranks = 0;
    rs.checkpoints_persisted = persisted;
    rs.resumed_from_disk = preloaded != nullptr;
    flight_dump("RecoveryExhaustedError: all ranks failed");
    throw RecoveryExhaustedError("all ranks failed", rs);
  } catch (const std::exception& e) {
    // Deadlock diagnostics, SPMD divergence, assertion unwinds — every
    // abnormal exit leaves a black box behind.
    flight_dump(e.what());
    throw;
  } catch (...) {
    flight_dump("unknown error");
    throw;
  }

  if (!completed) {
    // Every rank that could have finished the pipeline was killed (the
    // actives all died while retired spares let the run end cleanly).
    if (!opt.recover_on_failure) {
      flight_dump("RankFailedError: no active rank completed the pipeline");
      throw comm::RankFailedError(stats.failed_ranks);
    }
    RecoveryStats rs;
    rs.failed_ranks = stats.failed_ranks;
    rs.recoveries = recoveries;
    rs.final_active_ranks = 0;
    rs.detector = stats.detector;
    rs.checkpoints_persisted = persisted;
    rs.resumed_from_disk = preloaded != nullptr;
    flight_dump("RecoveryExhaustedError: no active rank completed the pipeline");
    throw RecoveryExhaustedError("no active rank completed the pipeline",
                                 rs);
  }

  for (VertexId v = 0; v < n; ++v) result.part[v] = side[v];
  result.report = evaluate(g, result.part);
  SP_ASSERT_MSG(result.report.cut == cut,
                "distributed cut disagrees with sequential evaluation");
  // Checkpoints: the gathered embedding and the refined partition
  // (coverage, balance, boundary/cut accounting). The imbalance bound is
  // structural sanity, not the quality target: tiny coarse graphs may
  // legitimately sit far from the epsilon the refiner aims for.
  SP_ANALYSIS_CHECK("embed/final",
                    analysis::validate_embedding(
                        std::span<const geom::Vec2>(coords), n));
  SP_ANALYSIS_CHECK("partition/final",
                    analysis::validate_partition(g, result.part, 0.35));
  result.stages = breakdown_from(stats);
  result.modeled_seconds = result.stages.total();
  result.partition_only_seconds = result.stages.partition_seconds;
  result.recovery.failed_ranks = stats.failed_ranks;
  result.recovery.recoveries = recoveries;
  result.recovery.final_active_ranks = final_active;
  result.recovery.checkpoint_seconds =
      stats.stage_max(obs::stages::kCheckpoint).total();
  result.recovery.recover_seconds =
      stats.stage_max(obs::stages::kRecover).total();
  result.recovery.checkpoint_messages =
      stats.stage_sum(obs::stages::kCheckpoint).messages;
  result.recovery.recover_messages =
      stats.stage_sum(obs::stages::kRecover).messages;
  result.recovery.detector = stats.detector;
  result.recovery.checkpoints_persisted = persisted;
  result.recovery.resumed_from_disk = preloaded != nullptr;
  result.stats = std::move(stats);
  result.embedding = std::move(coords);
  result.strip_size = strip_size;
  return result;
}

}  // namespace

ScalaPartResult scalapart_partition(const CsrGraph& g,
                                    const ScalaPartOptions& opt) {
  return scalapart_run(g, opt, nullptr);
}

ScalaPartResult resume_from_checkpoint(const CsrGraph& g,
                                       const ScalaPartOptions& opt) {
  if (opt.checkpoint_dir.empty()) {
    throw CheckpointError("resume_from_checkpoint requires checkpoint_dir");
  }
  PipelineCheckpoint ckpt =
      load_checkpoint(checkpoint_path(opt.checkpoint_dir));
  if (ckpt.num_vertices != g.num_vertices() ||
      ckpt.num_edges != g.num_edges()) {
    throw CheckpointError(
        "checkpoint was written for a different graph (" +
        std::to_string(ckpt.num_vertices) + " vertices / " +
        std::to_string(ckpt.num_edges) + " edges; resuming with " +
        std::to_string(g.num_vertices()) + " / " +
        std::to_string(g.num_edges()) + ")");
  }
  if (ckpt.seed != opt.seed || ckpt.nranks != opt.nranks) {
    throw CheckpointError(
        "checkpoint was written under different options (seed " +
        std::to_string(ckpt.seed) + ", nranks " +
        std::to_string(ckpt.nranks) + "; resuming with seed " +
        std::to_string(opt.seed) + ", nranks " +
        std::to_string(opt.nranks) + ")");
  }
  return scalapart_run(g, opt, &ckpt);
}

ScalaPartResult sp_pg7nl_partition(const CsrGraph& g,
                                   std::span<const geom::Vec2> coords,
                                   const ScalaPartOptions& opt) {
  SP_ASSERT(coords.size() == g.num_vertices());
  SP_ASSERT_MSG((opt.nranks & (opt.nranks - 1)) == 0,
                "nranks must be a power of two");
  const VertexId n = g.num_vertices();
  ScalaPartResult result;
  result.part = Bipartition(n);
  if (n <= 2) {
    if (n == 2) result.part.side[1] = 1;  // the only balanced bipartition
    result.report = evaluate(g, result.part);
    return result;
  }

  partition::ParallelGmtOptions gmt_opt = opt.gmt;
  gmt_opt.seed = opt.seed ^ (0x6E0ull * (opt.nranks + 1));

  std::vector<std::uint8_t> side(n, 0);
  analysis::SharedSpan<std::uint8_t> shared_side(side.data(), side.size(),
                                                "core/side");
  graph::Weight cut = 0;
  std::size_t strip_size = 0;

  comm::BspEngine engine(engine_options(opt));

  auto stats = engine.run([&](comm::Comm& world) {
    obs::Span pipeline_span(world, "sp-pg7nl", "pipeline");
    world.set_stage(obs::stages::kPartition);
    obs::Span stage_span(world, obs::stages::kPartition, "stage");
    embed::RankEmbedding emb = embedding_from_coords(world, g, coords);
    auto gmt = partition::parallel_gmt(world, g, emb, gmt_opt);
    for (std::size_t i = 0; i < emb.owned.size(); ++i) {
      shared_side.write(world, emb.owned[i], gmt.side[i]);
    }
    if (world.rank() == 0) {
      analysis::shared_store(world, cut, gmt.cut, "core/cut");
      analysis::shared_store(world, strip_size, gmt.strip_size,
                             "core/strip_size");
    }
    world.barrier();
  });

  for (VertexId v = 0; v < n; ++v) result.part[v] = side[v];
  result.report = evaluate(g, result.part);
  SP_ASSERT(result.report.cut == cut);
  SP_ANALYSIS_CHECK("partition/final",
                    analysis::validate_partition(g, result.part, 0.35));
  result.stages = breakdown_from(stats);
  result.modeled_seconds = result.stages.partition_seconds;
  result.partition_only_seconds = result.stages.partition_seconds;
  result.stats = std::move(stats);
  result.strip_size = strip_size;
  return result;
}

}  // namespace sp::core
