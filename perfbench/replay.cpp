// Traced replay. Spans are recorded by the benchmark around its calls into
// each layer; nothing inside the library is instrumented.
//
// Inside a BspEngine::run the layers are BSP stages, and every stage ends
// in collectives. Each rank notes the time it finishes each stage; the
// stage's span then runs from the latest finish of the previous stage
// over all ranks to the latest finish of its own. On the fiber backend,
// where one rank runs at a time, these windows split the engine's wall
// time between the stages with only the work a rank does before its first
// blocking call of the next stage attributed to the stage before.
#include "replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>

#include "coarsen/hierarchy.hpp"
#include "coarsen/parallel_matching.hpp"
#include "comm/engine.hpp"
#include "embed/force_model.hpp"
#include "embed/lattice_parallel.hpp"
#include "geometry/quadtree.hpp"
#include "graph/distributed_graph.hpp"
#include "graph/graph_io.hpp"
#include "obs/flight.hpp"
#include "obs/span.hpp"
#include "obs/stage_names.hpp"
#include "partition/parallel_gmt.hpp"

namespace spbench {

namespace {

using sp::comm::Comm;
using sp::geom::Vec2;
using sp::graph::CsrGraph;
using sp::graph::VertexId;
using sp::obs::JsonValue;
namespace stages = sp::obs::stages;

constexpr int kEmptyRuns = 5;

class SpanLog {
 public:
  struct Span {
    std::string name;  // "<layer>.<what>"
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int run = 0;
  };

  /// Seconds since the log was created. Safe to call from rank threads.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
  int open(std::string name, int parent, int run) {
    return add(std::move(name), now(), 0.0, parent, run);
  }
  /// Closes span `id` and returns its duration.
  double close(int id) {
    spans_[id].end = now();
    return duration(id);
  }
  int add(std::string name, double start, double end, int parent, int run) {
    spans_.push_back({std::move(name), start, end, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  double duration(int id) const { return spans_[id].end - spans_[id].start; }

  /// Self time per layer: each span's duration minus its children's. The
  /// children of a span here never overlap: they are sequential calls.
  std::map<std::string, double> self_by_layer() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += duration(static_cast<int>(i));
      if (spans_[i].parent >= 0) {
        self[spans_[i].parent] -= duration(static_cast<int>(i));
      }
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      by_layer[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
    }
    return by_layer;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (const Span& s : spans_) {
      JsonValue j = JsonValue::object();
      j["name"] = s.name;
      j["start"] = s.start;
      j["end"] = s.end;
      j["parent"] = s.parent;
      j["run"] = s.run;
      os << j.dump() << '\n';
    }
    if (!os) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// Per-rank stage timestamps: [0] the rank's start, [k] its finish of
/// stage k. Each rank writes only its own row.
using RankMarks = std::vector<std::array<double, 5>>;

/// Adds one window span per stage under `parent` (see the file comment)
/// and returns their durations.
std::vector<double> add_windows(SpanLog& log, int parent, int run,
                                const RankMarks& marks,
                                const std::vector<const char*>& names) {
  double prev = marks[0][0];
  for (const auto& m : marks) prev = std::min(prev, m[0]);
  std::vector<double> durations;
  for (std::size_t k = 0; k < names.size(); ++k) {
    double end = prev;
    for (const auto& m : marks) end = std::max(end, m[k + 1]);
    log.add(names[k], prev, end, parent, run);
    durations.push_back(end - prev);
    prev = end;
  }
  return durations;
}

/// What one rank leaves behind for the checks and the probe run.
struct RankOut {
  sp::embed::RankEmbedding emb;
  sp::graph::Weight cut = 0;
  sp::graph::Weight cut_before_refine = 0;
  std::size_t strip_size = 0;
  std::uint64_t matched = 0;
  std::uint64_t match_vertices = 0;
  double quadtree_build_s = 0.0;
  double bh_pass_s = 0.0;
  std::uint64_t bh_queries = 0;
  Vec2 bh_force{};
};

/// Layer metrics summed over the workload's inputs.
struct Totals {
  double read_metis_s = 0, read_coords_s = 0;
  std::uint64_t bytes_read = 0;
  double hierarchy_build_s = 0, match_s = 0;
  std::uint64_t levels = 0, matched = 0, match_vertices = 0;
  std::uint64_t coarsen_messages = 0;
  double lattice_s = 0, vertex_iters = 0, embed_modeled_compute_s = 0;
  std::uint64_t embed_messages = 0, embed_bytes = 0;
  double quadtree_build_s = 0, bh_pass_s = 0;
  std::uint64_t bh_queries = 0;
  double gmt_s = 0, gmt_nostrip_s = 0, pg7nl_s = 0, kway_s = 0;
  long long cut_before_refine = 0, cut = 0;
  std::uint64_t partition_messages = 0, strip_size = 0;
  std::uint64_t messages = 0, bytes = 0, collectives = 0, coalesced = 0;
  std::uint64_t arena_acquires = 0, arena_hits = 0;
  double engine_wall_s = 0, rank_wall_s = 0, parked_s = 0;
  double outside_engine_s = 0;
  double calls_s = 0;
};

sp::comm::BspEngine::Options engine_options(
    const sp::core::ScalaPartOptions& opt) {
  sp::comm::BspEngine::Options eng;
  eng.nranks = opt.nranks;
  eng.model = opt.cost_model;
  eng.faults = opt.faults;
  eng.detector = opt.detector;
  eng.schedule = opt.schedule;
  eng.schedule_seed = opt.schedule_seed;
  eng.backend = opt.backend;
  eng.threads = opt.threads;
  return eng;
}

/// The partition stage's seed, derived as core/scalapart.cpp derives it.
sp::partition::ParallelGmtOptions gmt_options(
    const sp::core::ScalaPartOptions& opt) {
  sp::partition::ParallelGmtOptions gmt = opt.gmt;
  gmt.seed = opt.seed ^ (0x6E0ull * (opt.nranks + 1));
  return gmt;
}

void add_engine_stats(const sp::comm::RunStats& s, std::uint32_t nranks,
                      Totals& t) {
  for (const std::string& stage : s.stages()) {
    const auto c = s.stage_sum(stage);
    t.messages += c.messages;
    t.bytes += c.bytes_sent;
    t.collectives += c.collectives;
  }
  t.coalesced += s.comm_counters.coalesced_batches;
  t.arena_acquires += s.comm_counters.arena_acquires;
  t.arena_hits += s.comm_counters.arena_hits;
  t.engine_wall_s += s.wall_seconds;
  t.rank_wall_s += s.wall_seconds * nranks;
  for (double p : s.parked_wall_seconds) t.parked_s += p;
}

void check_replay(const CallRecord& ref, const std::string& entry,
                  long long cut, const std::string& fp, double modeled_s) {
  if (ref.entry != entry) {
    throw CheckFailure("no untraced " + entry + " call to compare with");
  }
  if (cut != ref.cut || fp != ref.part_fp) {
    throw CheckFailure("traced " + entry + " cut " + std::to_string(cut) +
                       " part_fp " + fp + " differ from the untraced " +
                       std::to_string(ref.cut) + " " + ref.part_fp);
  }
  if (modeled_s != ref.modeled_s) {
    throw CheckFailure("traced " + entry + " modeled time differs");
  }
}

/// Gathers the ranks' sides into a bipartition and returns its part_fp
/// after checking the ranks' cut against a sequential evaluation.
std::string collect_sides(const CsrGraph& g, const std::vector<RankOut>& outs,
                          const std::vector<std::vector<std::uint8_t>>& sides,
                          long long* cut) {
  sp::graph::Bipartition part(g.num_vertices());
  for (std::size_t r = 0; r < outs.size(); ++r) {
    for (std::size_t i = 0; i < outs[r].emb.owned.size(); ++i) {
      part[outs[r].emb.owned[i]] = sides[r][i];
    }
  }
  *cut = sp::graph::evaluate(g, part).cut;
  if (*cut != outs[0].cut) {
    throw CheckFailure("distributed cut disagrees with sequential evaluation");
  }
  return part_fp(part.side);
}

/// A second engine run over the replay's final per-rank embeddings: each
/// rank builds a QuadTree over its owned positions and makes one
/// Barnes-Hut force pass through accumulate_with with the kernel the
/// embedder's smoothing loop uses; then parallel_gmt runs once more with
/// strip refinement off. Neither is part of the pipeline, so they run
/// outside the replayed call.
void probe_run(const CsrGraph& g, const sp::core::ScalaPartOptions& opt,
               const sp::geom::Box& box, std::vector<RankOut>& outs,
               SpanLog& log, int parent, int run, Totals& t) {
  auto gmt = gmt_options(opt);
  gmt.strip_refine = false;
  sp::embed::ForceModel model;
  model.K = sp::embed::ForceModel::natural_length(
      std::max(box.width() * box.height(), 1e-12), g.num_vertices());
  model.C = opt.embed.repulsion_c;
  const double theta = opt.embed.quadtree_theta;
  RankMarks marks(opt.nranks);
  sp::comm::BspEngine engine(engine_options(opt));
  const int span = log.open("trace.probe", parent, run);
  engine.run([&](Comm& world) {
    auto& mark = marks[world.rank()];
    RankOut& out = outs[world.rank()];
    mark[0] = log.now();
    const auto& pos = out.emb.pos;
    if (pos.size() > 1) {
      std::vector<double> mass(pos.size());
      for (std::size_t i = 0; i < pos.size(); ++i) {
        mass[i] = static_cast<double>(g.vertex_weight(out.emb.owned[i]));
      }
      const double t0 = log.now();
      sp::geom::QuadTree tree(pos, mass);
      const double t1 = log.now();
      Vec2 total{};
      for (std::size_t i = 0; i < pos.size(); ++i) {
        total += tree.accumulate_with(
                     pos[i], static_cast<std::int64_t>(i), theta,
                     [&](const Vec2& delta, double m) {
                       double d = std::max(delta.norm(), 1e-4 * model.K);
                       return delta *
                              (model.C * model.K * model.K * m / (d * d));
                     }) *
                 mass[i];
      }
      out.quadtree_build_s = t1 - t0;
      out.bh_pass_s = log.now() - t1;
      out.bh_queries = pos.size();
      out.bh_force = total;
    }
    mark[1] = log.now();
    sp::partition::parallel_gmt(world, g, out.emb, gmt);
    mark[2] = log.now();
  });
  log.close(span);
  // The strip-off run only serves refine.strip_fm_s, so it belongs to the
  // benchmark's own layer, not to partition's self time.
  const auto windows = add_windows(log, span, run, marks,
                                   {"geometry.probe", "trace.gmt_nostrip"});
  t.gmt_nostrip_s += windows[1];
  for (const RankOut& out : outs) {
    t.quadtree_build_s += out.quadtree_build_s;
    t.bh_pass_s += out.bh_pass_s;
    t.bh_queries += out.bh_queries;
  }
}

/// Replays scalapart_partition's fault-free path (scalapart_run in
/// core/scalapart.cpp) stage by stage.
void replay_scalapart(const CsrGraph& g, const sp::core::ScalaPartOptions& opt,
                      const CallRecord& ref, SpanLog& log, int parent,
                      int run, Totals& t) {
  const VertexId n = g.num_vertices();
  if (n <= 2) throw CheckFailure("input too small to replay");
  const int call = log.open("core.scalapart", parent, run);

  sp::coarsen::HierarchyOptions hopt;
  hopt.coarsest_size = opt.coarsest_size != 0
                           ? opt.coarsest_size
                           : std::clamp<VertexId>(n / 256, 64, 4096);
  hopt.rounds_per_level = opt.hierarchy_rounds;
  hopt.seed = opt.seed;
  const int build = log.open("coarsen.hierarchy_build", call, run);
  const auto hierarchy = sp::coarsen::Hierarchy::build(g, hopt);
  t.hierarchy_build_s += log.close(build);
  sp::embed::EmbedWorkspace workspace(hierarchy);

  auto embed_opt = opt.embed;
  embed_opt.seed = opt.seed ^ 0xE3BEDull;
  const auto gmt_opt = gmt_options(opt);

  std::vector<RankOut> outs(opt.nranks);
  std::vector<std::vector<std::uint8_t>> sides(opt.nranks);
  RankMarks marks(opt.nranks);
  sp::comm::BspEngine engine(engine_options(opt));
  sp::obs::flight::FlightRecorder flight(opt.nranks, opt.flight_capacity);
  sp::obs::flight::ScopedFlightRecording flight_scope(flight);

  auto program = [&](Comm& world) {
    auto& mark = marks[world.rank()];
    RankOut& out = outs[world.rank()];
    mark[0] = log.now();
    sp::obs::Span pipeline_span(world, "scalapart", "pipeline");
    const std::uint32_t P = world.nranks();
    world.set_stage(stages::kCoarsen);
    {
      sp::obs::Span stage_span(world, stages::kCoarsen, "stage");
      for (std::size_t level = 0; level + 1 < hierarchy.num_levels();
           ++level) {
        sp::obs::Span level_span(world, stages::kCoarsen, "level",
                                 static_cast<std::int32_t>(level));
        const std::uint32_t shift = 2 * static_cast<std::uint32_t>(level);
        const std::uint32_t pl = shift >= 32 ? 1u : std::max(P >> shift, 1u);
        const bool active = world.rank() < pl;
        Comm sub = world.split(active ? 0u : 1u, world.rank());
        if (!active) continue;
        sp::graph::LocalView view(hierarchy.graph_at(level), sub.rank(), pl);
        auto match = sp::coarsen::distributed_matching(
            sub, view, opt.matching_rounds, opt.seed + level);
        for (VertexId v = 0; v < view.num_local(); ++v) {
          if (match.partner[v] != view.to_global(v)) ++out.matched;
        }
        out.match_vertices += view.num_local();
        double arcs_local = 0;
        for (VertexId v = 0; v < view.num_local(); ++v) {
          arcs_local += static_cast<double>(view.neighbors(v).size());
        }
        sub.add_compute(arcs_local * 4.0 + arcs_local * 1.5);
      }
    }
    mark[1] = log.now();
    world.set_stage(stages::kEmbed);
    {
      sp::obs::Span stage_span(world, stages::kEmbed, "stage");
      out.emb = sp::embed::lattice_embed(world, workspace, embed_opt, nullptr);
    }
    mark[2] = log.now();
    world.set_stage(stages::kPartition);
    {
      sp::obs::Span stage_span(world, stages::kPartition, "stage");
      auto gmt = sp::partition::parallel_gmt(world, g, out.emb, gmt_opt);
      sides[world.rank()] = std::move(gmt.side);
      out.cut = gmt.cut;
      out.cut_before_refine = gmt.cut_before_refine;
      out.strip_size = gmt.strip_size;
    }
    mark[3] = log.now();
    world.set_stage(stages::kOutput);
    {
      sp::obs::Span stage_span(world, stages::kOutput, "stage");
      [[maybe_unused]] auto gathered =
          sp::embed::gather_embedding(world, out.emb, n);
      world.barrier();
    }
    mark[4] = log.now();
  };

  const int eng = log.open("exec.engine_run", call, run);
  const sp::comm::RunStats stats = engine.run(program);
  const double engine_s = log.close(eng);
  const auto windows = add_windows(
      log, eng, run, marks,
      {"coarsen.match", "embed.lattice", "partition.gmt", "core.output"});

  long long cut = 0;
  const std::string fp = collect_sides(g, outs, sides, &cut);
  const double modeled = stats.stage_max(stages::kCoarsen).total() +
                         stats.stage_max(stages::kEmbed).total() +
                         stats.stage_max(stages::kPartition).total();
  t.calls_s += log.close(call);
  t.outside_engine_s += log.duration(call) - engine_s;
  check_replay(ref, "scalapart", cut, fp, modeled);

  t.match_s += windows[0];
  t.lattice_s += windows[1];
  t.gmt_s += windows[2];
  t.levels += hierarchy.num_levels();
  for (std::size_t l = 0; l < hierarchy.num_levels(); ++l) {
    const bool coarsest = l + 1 == hierarchy.num_levels();
    t.vertex_iters +=
        static_cast<double>(hierarchy.graph_at(l).num_vertices()) *
        (coarsest ? embed_opt.coarsest_iterations : embed_opt.smooth_iterations);
  }
  for (const RankOut& out : outs) {
    t.matched += out.matched;
    t.match_vertices += out.match_vertices;
  }
  t.coarsen_messages += stats.stage_sum(stages::kCoarsen).messages;
  const auto embed_sum = stats.stage_sum(stages::kEmbed);
  t.embed_modeled_compute_s += embed_sum.compute_seconds;
  t.embed_messages += embed_sum.messages;
  t.embed_bytes += embed_sum.bytes_sent;
  t.partition_messages += stats.stage_sum(stages::kPartition).messages;
  t.cut_before_refine += outs[0].cut_before_refine;
  t.cut += cut;
  t.strip_size += outs[0].strip_size;
  add_engine_stats(stats, opt.nranks, t);

  probe_run(g, opt, outs[0].emb.box, outs, log, parent, run, t);
}

/// The coordinate entry point's redistribution (embedding_from_coords,
/// internal to core/scalapart.cpp): block-distributed owned coordinates
/// plus one halo exchange. Reproduced exactly, so the replay sends the
/// same messages and cuts the same partition.
sp::embed::RankEmbedding coords_embedding(Comm& world, const CsrGraph& g,
                                          std::span<const Vec2> coords) {
  const VertexId n = g.num_vertices();
  sp::graph::LocalView view(g, world.rank(), world.nranks());
  sp::embed::RankEmbedding emb;
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
  for (std::uint32_t r : view.neighbor_ranks()) {
    std::vector<CoordMsg> payload;
    for (VertexId local : view.boundary_locals()) {
      const VertexId global = view.to_global(local);
      bool adj = false;
      for (VertexId u : view.neighbors(local)) {
        if (!view.owns(u) &&
            sp::graph::block_owner(u, n, world.nranks()) == r) {
          adj = true;
          break;
        }
      }
      if (adj) payload.push_back({global, coords[global][0], coords[global][1]});
    }
    if (!payload.empty()) out.emplace_back(r, std::move(payload));
  }
  auto in = world.exchange_typed(out);
  emb.ghost_ids = view.ghosts();
  emb.ghost_pos.assign(emb.ghost_ids.size(), Vec2{});
  emb.ghost_owner.resize(emb.ghost_ids.size());
  std::unordered_map<VertexId, std::uint32_t> ghost_of;
  for (std::uint32_t i = 0; i < emb.ghost_ids.size(); ++i) {
    emb.ghost_owner[i] =
        sp::graph::block_owner(emb.ghost_ids[i], n, world.nranks());
    ghost_of[emb.ghost_ids[i]] = i;
  }
  for (const auto& [src, payload] : in) {
    for (const CoordMsg& msg : payload) {
      auto it = ghost_of.find(msg.id);
      if (it != ghost_of.end()) {
        emb.ghost_pos[it->second] = sp::geom::vec2(msg.x, msg.y);
      }
    }
  }
  return emb;
}

/// Replays sp_pg7nl_partition.
void replay_pg7nl(const Input& in, const sp::core::ScalaPartOptions& opt,
                  const CallRecord& ref, SpanLog& log, int parent, int run,
                  Totals& t) {
  const CsrGraph& g = in.graph;
  if (g.num_vertices() <= 2) throw CheckFailure("input too small to replay");
  const int call = log.open("core.pg7nl", parent, run);
  const auto gmt_opt = gmt_options(opt);
  std::vector<RankOut> outs(opt.nranks);
  std::vector<std::vector<std::uint8_t>> sides(opt.nranks);
  RankMarks marks(opt.nranks);
  sp::comm::BspEngine engine(engine_options(opt));
  const int eng = log.open("exec.engine_run", call, run);
  const sp::comm::RunStats stats = engine.run([&](Comm& world) {
    auto& mark = marks[world.rank()];
    RankOut& out = outs[world.rank()];
    mark[0] = log.now();
    sp::obs::Span pipeline_span(world, "sp-pg7nl", "pipeline");
    world.set_stage(stages::kPartition);
    sp::obs::Span stage_span(world, stages::kPartition, "stage");
    out.emb = coords_embedding(world, g, in.coords);
    mark[1] = log.now();
    auto gmt = sp::partition::parallel_gmt(world, g, out.emb, gmt_opt);
    sides[world.rank()] = std::move(gmt.side);
    out.cut = gmt.cut;
    out.cut_before_refine = gmt.cut_before_refine;
    out.strip_size = gmt.strip_size;
    mark[2] = log.now();
    world.barrier();
    mark[3] = log.now();
  });
  const double engine_s = log.close(eng);
  const auto windows =
      add_windows(log, eng, run, marks,
                  {"partition.coords_halo", "partition.gmt", "core.output"});
  long long cut = 0;
  const std::string fp = collect_sides(g, outs, sides, &cut);
  const double call_s = log.close(call);
  t.calls_s += call_s;
  t.pg7nl_s += call_s;
  t.outside_engine_s += call_s - engine_s;
  check_replay(ref, "pg7nl", cut, fp,
               stats.stage_max(stages::kPartition).total());

  t.gmt_s += windows[1];
  t.partition_messages += stats.stage_sum(stages::kPartition).messages;
  t.cut_before_refine += outs[0].cut_before_refine;
  t.cut += cut;
  t.strip_size += outs[0].strip_size;
  add_engine_stats(stats, opt.nranks, t);

  const auto box = sp::geom::Box::of(in.coords);
  probe_run(g, opt, box, outs, log, parent, run, t);
}

void replay_kway(const Input& in, const sp::core::KwayOptions& opt,
                 const CallRecord& ref, SpanLog& log, int parent, int run,
                 Totals& t) {
  const int call = log.open("partition.kway", parent, run);
  const auto r = sp::core::kway_partition_with_coords(in.graph, in.coords, opt);
  const double call_s = log.close(call);
  t.calls_s += call_s;
  t.kway_s += call_s;
  check_replay(ref, "kway", r.total_cut, part_fp(r.part), 0.0);
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

JsonValue traced_replay(const Workload& w, const std::vector<InputFile>& files,
                        const std::vector<CallRecord>& reference,
                        const std::string& spans_path, Tally& tally) {
  const auto sp_opt = scalapart_options(w);
  const auto kw_opt = kway_options(w);
  SpanLog log;
  Totals t;
  std::size_t call = 0;
  auto replay = [&](const std::string& input, auto&& fn) {
    ++tally.attempted;
    const CallRecord& ref = reference.at(call++);
    try {
      fn(ref);
    } catch (const std::exception& e) {
      tally.fail(input + " (traced replay): " + e.what());
    }
  };
  for (std::size_t i = 0; i < files.size(); ++i) {
    const InputFile& file = files[i];
    const int run = static_cast<int>(i);
    const int root = log.open("trace.input", -1, run);
    Input in;
    in.name = file.name;
    int s = log.open("graph.read_metis", root, run);
    in.graph = sp::graph::io::read_metis_file(file.graph_path);
    t.read_metis_s += log.close(s);
    t.bytes_read += std::filesystem::file_size(file.graph_path);
    if (!file.coords_path.empty()) {
      s = log.open("graph.read_coords", root, run);
      std::ifstream is(file.coords_path);
      in.coords = sp::graph::io::read_coords(is);
      t.read_coords_s += log.close(s);
      t.bytes_read += std::filesystem::file_size(file.coords_path);
    }
    if (!w.with_coords) {
      replay(in.name, [&](const CallRecord& ref) {
        replay_scalapart(in.graph, sp_opt, ref, log, root, run, t);
      });
    } else {
      replay(in.name, [&](const CallRecord& ref) {
        replay_pg7nl(in, sp_opt, ref, log, root, run, t);
      });
      replay(in.name, [&](const CallRecord& ref) {
        replay_kway(in, kw_opt, ref, log, root, run, t);
      });
    }
    log.close(root);
  }

  std::vector<double> empty_s;
  sp::comm::BspEngine engine(engine_options(sp_opt));
  for (int k = 0; k < kEmptyRuns; ++k) {
    const int s = log.open("comm.empty_run", -1, static_cast<int>(files.size()));
    engine.run([](Comm&) {});
    empty_s.push_back(log.close(s));
  }
  log.write_jsonl(spans_path);

  JsonValue layers = JsonValue::object();
  auto put = [&](const char* name, double v) { layers[name] = v; };
  put("graph.read_metis_s", t.read_metis_s);
  put("graph.read_coords_s", t.read_coords_s);
  put("graph.bytes_read", static_cast<double>(t.bytes_read));
  put("coarsen.hierarchy_build_s", t.hierarchy_build_s);
  put("coarsen.match_s", t.match_s);
  put("coarsen.levels", static_cast<double>(t.levels));
  put("coarsen.match_rate", ratio(t.matched, t.match_vertices));
  put("coarsen.messages", static_cast<double>(t.coarsen_messages));
  put("embed.lattice_s", t.lattice_s);
  put("embed.vertex_iters", t.vertex_iters);
  put("embed.ns_per_vertex_iter", 1e9 * ratio(t.lattice_s, t.vertex_iters));
  put("embed.modeled_compute_s", t.embed_modeled_compute_s);
  put("embed.wall_per_modeled", ratio(t.lattice_s, t.embed_modeled_compute_s));
  put("embed.messages", static_cast<double>(t.embed_messages));
  put("embed.bytes", static_cast<double>(t.embed_bytes));
  put("geometry.quadtree_build_s", t.quadtree_build_s);
  put("geometry.bh_pass_s", t.bh_pass_s);
  put("geometry.bh_ns_per_query", 1e9 * ratio(t.bh_pass_s, t.bh_queries));
  put("partition.gmt_s", t.gmt_s);
  put("partition.cut_before_refine", static_cast<double>(t.cut_before_refine));
  put("partition.pg7nl_s", t.pg7nl_s);
  put("partition.kway_s", t.kway_s);
  put("partition.messages", static_cast<double>(t.partition_messages));
  put("refine.strip_fm_s", t.gmt_s - t.gmt_nostrip_s);
  put("refine.cut_gain", static_cast<double>(t.cut_before_refine - t.cut));
  put("refine.strip_size", static_cast<double>(t.strip_size));
  put("comm.messages", static_cast<double>(t.messages));
  put("comm.bytes", static_cast<double>(t.bytes));
  put("comm.collectives", static_cast<double>(t.collectives));
  put("comm.coalesced_batches", static_cast<double>(t.coalesced));
  put("comm.arena_hit_rate", ratio(t.arena_hits, t.arena_acquires));
  put("comm.empty_run_s", median(empty_s));
  put("exec.engine_wall_s", t.engine_wall_s);
  put("exec.parked_wall_s", t.parked_s);
  put("exec.parked_frac", ratio(t.parked_s, t.rank_wall_s));
  put("core.outside_engine_s", t.outside_engine_s);
  const auto self = log.self_by_layer();
  for (const char* layer :
       {"graph", "core", "coarsen", "embed", "partition", "exec", "geometry"}) {
    const auto it = self.find(layer);
    layers[std::string(layer) + ".self_s"] = it == self.end() ? 0.0 : it->second;
  }

  JsonValue out = JsonValue::object();
  out["calls_s"] = t.calls_s;
  out["layers"] = std::move(layers);
  return out;
}

}  // namespace spbench
