// Microbenchmarks (google-benchmark) for the library's kernels: matching,
// contraction, FM refinement, quadtree build + force pass, centerpoint,
// Delaunay triangulation, cut evaluation, the sequential G7-NL cut, induced
// subgraphs, BSP collectives (fiber and threads backends).
#include <benchmark/benchmark.h>

#include <algorithm>

#include "coarsen/contract.hpp"
#include "coarsen/matching.hpp"
#include "comm/engine.hpp"
#include "embed/force_model.hpp"
#include "exec/executor.hpp"
#include "geometry/delaunay.hpp"
#include "geometry/quadtree.hpp"
#include "geometry/sphere.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "obs/flight.hpp"
#include "partition/geometric_mesh.hpp"
#include "refine/fm.hpp"
#include "support/random.hpp"

namespace {

using namespace sp;

const graph::gen::GeneratedGraph& mesh(std::int64_t n) {
  static std::map<std::int64_t, graph::gen::GeneratedGraph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, graph::gen::delaunay(static_cast<std::uint32_t>(n), 7))
             .first;
  }
  return it->second;
}

void BM_HeavyEdgeMatching(benchmark::State& state) {
  const auto& g = mesh(state.range(0)).graph;
  Rng rng(1);
  for (auto _ : state) {
    auto match = coarsen::heavy_edge_matching(g, rng);
    benchmark::DoNotOptimize(match.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_HeavyEdgeMatching)->Arg(10000)->Arg(50000);

void BM_Contraction(benchmark::State& state) {
  const auto& g = mesh(state.range(0)).graph;
  Rng rng(1);
  auto match = coarsen::heavy_edge_matching(g, rng);
  for (auto _ : state) {
    auto c = coarsen::contract(g, match);
    benchmark::DoNotOptimize(c.coarse.num_vertices());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_Contraction)->Arg(10000)->Arg(50000);

void BM_FmRefinement(benchmark::State& state) {
  const auto& g = mesh(state.range(0)).graph;
  graph::Bipartition base(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    base[v] = static_cast<std::uint8_t>(hash64(v) & 1);
  }
  refine::FmOptions opt;
  opt.max_passes = 2;
  for (auto _ : state) {
    graph::Bipartition part = base;
    auto r = refine::fm_refine(g, part, opt);
    benchmark::DoNotOptimize(r.final_cut);
  }
}
BENCHMARK(BM_FmRefinement)->Arg(10000)->Arg(50000);

void BM_QuadTreeBuild(benchmark::State& state) {
  Rng rng(3);
  std::vector<geom::Vec2> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) p = geom::vec2(rng.uniform(), rng.uniform());
  for (auto _ : state) {
    geom::QuadTree tree(pts, {});
    benchmark::DoNotOptimize(tree.total_mass());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// 512 points is about one rank's cell in perfbench's embed workloads.
BENCHMARK(BM_QuadTreeBuild)->Arg(512)->Arg(10000)->Arg(100000);

// The lattice embedder's intra-cell pass: one query per point through
// accumulate_with, with the embedder's repulsion kernel at theta = 0.9.
void BM_QuadTreeForcePass(benchmark::State& state) {
  Rng rng(3);
  std::vector<geom::Vec2> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) p = geom::vec2(rng.uniform(), rng.uniform());
  geom::QuadTree tree(pts, {});
  embed::ForceModel model;
  model.K = embed::ForceModel::natural_length(1.0, pts.size());
  auto kernel = [&](const geom::Vec2& delta, double m) {
    return model.repulsive(delta, m);
  };
  for (auto _ : state) {
    geom::Vec2 total{};
    for (std::size_t i = 0; i < pts.size(); ++i) {
      total += tree.accumulate_with(pts[i], static_cast<std::int64_t>(i), 0.9,
                                    kernel);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuadTreeForcePass)->Arg(512)->Arg(10000);

void BM_Centerpoint(benchmark::State& state) {
  Rng rng(5);
  std::vector<geom::Vec3> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) p = geom::random_unit_vector(rng);
  for (auto _ : state) {
    Rng cp_rng(11);
    auto cp = geom::approximate_centerpoint(pts, cp_rng, 800);
    benchmark::DoNotOptimize(cp);
  }
}
BENCHMARK(BM_Centerpoint)->Arg(10000);

void BM_DelaunayTriangulation(benchmark::State& state) {
  Rng rng(9);
  std::vector<geom::Vec2> pts(static_cast<std::size_t>(state.range(0)));
  for (auto& p : pts) p = geom::vec2(rng.uniform(), rng.uniform());
  for (auto _ : state) {
    auto edges = geom::delaunay_edges(pts);
    benchmark::DoNotOptimize(edges.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DelaunayTriangulation)->Arg(10000)->Arg(50000);

void BM_CutEvaluation(benchmark::State& state) {
  const auto& g = mesh(state.range(0)).graph;
  graph::Bipartition part(g.num_vertices());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    part[v] = static_cast<std::uint8_t>(hash64(v) & 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::cut_size(g, part));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_arcs()));
}
BENCHMARK(BM_CutEvaluation)->Arg(50000);

// The sequential G7-NL cut of recursive k-way partitioning: five great
// circles, each a weighted median selection and a cut count.
void BM_GeometricMeshG7nl(benchmark::State& state) {
  const auto& m = mesh(state.range(0));
  const auto opt = partition::GeometricMeshOptions::g7nl();
  for (auto _ : state) {
    auto r = partition::geometric_mesh_partition(m.graph, m.coords, opt);
    benchmark::DoNotOptimize(r.cut);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GeometricMeshG7nl)->Arg(50000);

// One k-way recursion step's subgraph: the vertices left of the median x,
// in id order.
void BM_InducedSubgraph(benchmark::State& state) {
  const auto& m = mesh(state.range(0));
  std::vector<double> xs(m.coords.size());
  for (std::size_t v = 0; v < xs.size(); ++v) xs[v] = m.coords[v][0];
  auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  std::vector<graph::VertexId> half;
  for (graph::VertexId v = 0; v < m.graph.num_vertices(); ++v) {
    if (m.coords[v][0] < *mid) half.push_back(v);
  }
  for (auto _ : state) {
    auto sub = graph::induced_subgraph(m.graph, half);
    benchmark::DoNotOptimize(sub.num_arcs());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(half.size()));
}
BENCHMARK(BM_InducedSubgraph)->Arg(50000);

void BM_BspAllReduce(benchmark::State& state) {
  comm::BspEngine::Options opt;
  opt.nranks = static_cast<std::uint32_t>(state.range(0));
  comm::BspEngine engine(opt);
  for (auto _ : state) {
    auto stats = engine.run([](comm::Comm& c) {
      for (int i = 0; i < 16; ++i) {
        benchmark::DoNotOptimize(c.allreduce<double>(1.0, comm::ReduceOp::kSum));
      }
    });
    benchmark::DoNotOptimize(stats.makespan());
  }
  state.SetItemsProcessed(state.iterations() * 16 * state.range(0));
}
BENCHMARK(BM_BspAllReduce)->Arg(16)->Arg(256);

// The same collective loop on the threads backend, with (P, T) as the
// arguments: each allreduce parks P-1 rank threads and wakes them again,
// so this prices the executor's rendezvous. The ranks' CPU is spent on
// their own threads, which the default timer (the joining main thread's
// CPU) does not see, hence the process CPU clock and real time.
void BM_BspAllReduceThreads(benchmark::State& state) {
  comm::BspEngine::Options opt;
  opt.nranks = static_cast<std::uint32_t>(state.range(0));
  opt.backend = exec::Backend::kThreads;
  opt.threads = static_cast<std::uint32_t>(state.range(1));
  comm::BspEngine engine(opt);
  for (auto _ : state) {
    auto stats = engine.run([](comm::Comm& c) {
      for (int i = 0; i < 16; ++i) {
        benchmark::DoNotOptimize(c.allreduce<double>(1.0, comm::ReduceOp::kSum));
      }
    });
    benchmark::DoNotOptimize(stats.makespan());
  }
  state.SetItemsProcessed(state.iterations() * 16 * state.range(0));
}
BENCHMARK(BM_BspAllReduceThreads)
    ->Args({16, 4})
    ->Args({64, 4})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Flight-recorder overhead: the same collective loop as BM_BspAllReduce
// with a FlightRecorder installed, so comparing the two measures the
// steady-state cost of the always-on black box. Each rendezvous appends
// two records per rank (arrive + comm op); the ring is sized to wrap
// several times over the run.
void BM_BspAllReduceFlightRecorded(benchmark::State& state) {
  comm::BspEngine::Options opt;
  opt.nranks = static_cast<std::uint32_t>(state.range(0));
  comm::BspEngine engine(opt);
  for (auto _ : state) {
    obs::flight::FlightRecorder frec(opt.nranks);
    obs::flight::ScopedFlightRecording on(frec);
    auto stats = engine.run([](comm::Comm& c) {
      for (int i = 0; i < 16; ++i) {
        benchmark::DoNotOptimize(c.allreduce<double>(1.0, comm::ReduceOp::kSum));
      }
    });
    benchmark::DoNotOptimize(stats.makespan());
  }
  state.SetItemsProcessed(state.iterations() * 16 * state.range(0));
}
BENCHMARK(BM_BspAllReduceFlightRecorded)->Arg(16)->Arg(256);

// Raw append cost of the ring (the per-event price every instrumented
// site pays): one interned-name mark per iteration.
void BM_FlightRecorderAppend(benchmark::State& state) {
  obs::flight::FlightRecorder frec(1);
  double t = 0.0;
  for (auto _ : state) {
    frec.mark(0, "bench-mark", "bench", t);
    t += 1e-9;
  }
  benchmark::DoNotOptimize(frec.total_appends(0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderAppend);

}  // namespace

BENCHMARK_MAIN();
