// Property tests for the streaming partitioning subsystem (src/stream):
// ~50 seeded graphs x {HDRF, DBH, SNE} x k in {2, 8, 32} invariant sweeps,
// bit-identical assignments across pipeline worker counts 1/4/8, bounded
// queue + pipeline shutdown on mid-stream exceptions, OnlineAssignment
// lookups racing ingest, and the seeded EdgePermutation's independence
// from CSR construction order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/quality.hpp"
#include "obs/events.hpp"
#include "obs/recorder.hpp"
#include "stream/bounded_heap.hpp"
#include "stream/bounded_queue.hpp"
#include "stream/chunk.hpp"
#include "stream/dbh.hpp"
#include "stream/hdrf.hpp"
#include "stream/online_assignment.hpp"
#include "stream/pipeline.hpp"
#include "stream/sne.hpp"

namespace sp::stream {
namespace {

using graph::CsrGraph;
using graph::VertexId;

// ---------------------------------------------------------------------------
// Seeded graph corpus: ~50 small graphs across the generator classes.
// ---------------------------------------------------------------------------

std::vector<graph::gen::GeneratedGraph> test_corpus() {
  std::vector<graph::gen::GeneratedGraph> out;
  for (std::uint64_t s = 1; s <= 20; ++s) {
    out.push_back(graph::gen::erdos_renyi(200 + 13 * static_cast<std::uint32_t>(s),
                                          900 + 40 * s, s));
  }
  for (std::uint64_t s = 1; s <= 10; ++s) {
    out.push_back(graph::gen::delaunay(150 + 20 * static_cast<std::uint32_t>(s), s));
  }
  for (std::uint64_t s = 1; s <= 10; ++s) {
    out.push_back(graph::gen::kkt_power(180 + 15 * static_cast<std::uint32_t>(s),
                                        4 + static_cast<std::uint32_t>(s) % 5,
                                        12, s));
  }
  for (std::uint32_t r = 8; r <= 15; ++r) {
    out.push_back(graph::gen::grid2d(r, r + 3));
  }
  out.push_back(graph::gen::cycle(97));
  out.push_back(graph::gen::complete(24));
  return out;  // 50 graphs
}

std::vector<std::pair<VertexId, VertexId>> stream_edges(const CsrGraph& g,
                                                        std::uint64_t seed) {
  graph::gen::EdgePermutation perm(g, seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(perm.size());
  VertexId u = 0;
  VertexId v = 0;
  while (perm.next(&u, &v)) edges.emplace_back(u, v);
  return edges;
}

StreamConfig make_config(const CsrGraph& g, std::uint32_t k,
                         std::uint64_t seed) {
  StreamConfig cfg;
  cfg.blocks = k;
  cfg.seed = seed;
  cfg.num_vertices_hint = g.num_vertices();
  return cfg;
}

// ---------------------------------------------------------------------------
// EdgePermutation: deterministic, construction-order independent, complete.
// ---------------------------------------------------------------------------

TEST(EdgePermutation, IndependentOfConstructionOrderAndComplete) {
  // Same logical graph, edges inserted in opposite orders and flipped
  // orientation: the seeded stream must be identical.
  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {4, 1}, {4, 3}, {5, 4}};
  graph::GraphBuilder fwd(6);
  for (const auto& [u, v] : edges) fwd.add_edge(u, v);
  graph::GraphBuilder rev(6);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    rev.add_edge(it->second, it->first);
  }
  const CsrGraph ga = fwd.build();
  const CsrGraph gb = rev.build();

  const auto sa = stream_edges(ga, 7);
  const auto sb = stream_edges(gb, 7);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa.size(), edges.size());

  // Every canonical edge exactly once.
  std::set<std::pair<VertexId, VertexId>> want;
  for (auto [u, v] : edges) want.emplace(std::min(u, v), std::max(u, v));
  std::set<std::pair<VertexId, VertexId>> got;
  for (auto [u, v] : sa) got.emplace(std::min(u, v), std::max(u, v));
  EXPECT_EQ(got, want);

  // A different seed really permutes (overwhelmingly likely on 8 edges;
  // deterministic for these fixed seeds).
  EXPECT_NE(stream_edges(ga, 7), stream_edges(ga, 8));
  // reset() replays the identical stream.
  graph::gen::EdgePermutation perm(ga, 7);
  VertexId u = 0;
  VertexId v = 0;
  std::vector<std::pair<VertexId, VertexId>> first;
  while (perm.next(&u, &v)) first.emplace_back(u, v);
  perm.reset();
  std::vector<std::pair<VertexId, VertexId>> second;
  while (perm.next(&u, &v)) second.emplace_back(u, v);
  EXPECT_EQ(first, second);
}

TEST(EdgePermutation, WeightsTravelWithEdges) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 7);
  b.add_edge(2, 3, 9);
  const CsrGraph g = b.build();
  graph::gen::EdgePermutation perm(g, 3);
  VertexId u = 0;
  VertexId v = 0;
  graph::Weight w = 0;
  std::set<std::pair<std::pair<VertexId, VertexId>, graph::Weight>> got;
  while (perm.next(&u, &v, &w)) {
    got.insert({{std::min(u, v), std::max(u, v)}, w});
  }
  const std::set<std::pair<std::pair<VertexId, VertexId>, graph::Weight>>
      want = {{{0, 1}, 5}, {{1, 2}, 7}, {{2, 3}, 9}};
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// The 50-graph x 3-partitioner x k sweep.
// ---------------------------------------------------------------------------

void check_edge_partitioner(const CsrGraph& g, StreamPartitioner& part,
                            std::uint32_t k, std::uint64_t order_seed) {
  StreamRunOptions opt;
  opt.workers = 1;
  opt.chunk_size = 128;
  opt.order_seed = order_seed;
  const StreamRunResult res = run_edge_stream(g, part, opt);

  const auto edges = stream_edges(g, order_seed);
  ASSERT_EQ(res.assignments.size(), edges.size());
  ASSERT_EQ(part.assigned_items(), edges.size());

  // Every edge in exactly one block; per-block loads sum to m.
  std::uint64_t load_sum = 0;
  for (const std::uint64_t load : part.block_edges()) load_sum += load;
  EXPECT_EQ(load_sum, edges.size());
  for (const BlockId b : res.assignments) ASSERT_LT(b, k);

  // Replication invariants: every touched vertex is in >= 1 and <= min(k,
  // degree) blocks; untouched vertices are in none.
  std::vector<std::uint32_t> degree(g.num_vertices(), 0);
  for (auto [u, v] : edges) {
    ++degree[u];
    ++degree[v];
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t reps = part.replicas(v);
    if (degree[v] == 0) {
      EXPECT_EQ(reps, 0u);
      continue;
    }
    EXPECT_GE(reps, 1u) << "vertex " << v;
    EXPECT_LE(reps, std::min<std::uint32_t>(k, degree[v])) << "vertex " << v;
  }
  EXPECT_GE(part.replication_factor(), 1.0);
  EXPECT_LE(part.replication_factor(), static_cast<double>(k));

  // The partitioner's own tables must agree with an independent
  // recomputation from (edges, assignments).
  const auto q = graph::analyze_vertex_cut(g.num_vertices(), edges,
                                           res.assignments, k);
  EXPECT_EQ(q.total_replicas, part.total_replicas());
  EXPECT_EQ(q.covered_vertices, part.touched_vertices());
  EXPECT_DOUBLE_EQ(q.replication_factor, part.replication_factor());
  ASSERT_EQ(q.block_edges.size(), part.block_edges().size());
  for (std::uint32_t b = 0; b < k; ++b) {
    EXPECT_EQ(q.block_edges[b], part.block_edges()[b]);
  }
}

void check_sne(const CsrGraph& g, std::uint32_t k, std::uint64_t seed) {
  SnePartitioner part(make_config(g, k, seed));
  StreamRunOptions opt;
  opt.workers = 1;
  opt.chunk_size = 128;
  opt.order_seed = seed + 100;
  const StreamRunResult res = run_vertex_stream(g, part, opt);

  const VertexId n = g.num_vertices();
  ASSERT_EQ(res.assignments.size(), n);
  const auto assignment = part.vertex_assignment();
  ASSERT_EQ(assignment.size(), n);

  // Every vertex placed, hard capacity respected, loads sum to n.
  std::vector<std::uint64_t> load(k, 0);
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_NE(assignment[v], kNoBlock) << "vertex " << v;
    ASSERT_LT(assignment[v], k);
    ++load[assignment[v]];
  }
  std::uint64_t total = 0;
  for (std::uint32_t b = 0; b < k; ++b) {
    EXPECT_LE(load[b], part.capacity()) << "block " << b;
    EXPECT_EQ(load[b], part.block_vertices()[b]);
    total += load[b];
  }
  EXPECT_EQ(total, n);

  // Vertex partitioning: replication factor is exactly 1.
  EXPECT_EQ(part.total_replicas(), n);
  EXPECT_DOUBLE_EQ(part.replication_factor(), 1.0);
}

TEST(StreamSweep, FiftyGraphsThreePartitionersThreeK) {
  const auto corpus = test_corpus();
  ASSERT_GE(corpus.size(), 50u);
  std::uint64_t seed = 11;
  for (const auto& gg : corpus) {
    for (const std::uint32_t k : {2u, 8u, 32u}) {
      ++seed;
      {
        HdrfPartitioner hdrf(make_config(gg.graph, k, seed));
        check_edge_partitioner(gg.graph, hdrf, k, seed + 1000);
      }
      {
        DbhPartitioner dbh(make_config(gg.graph, k, seed));
        check_edge_partitioner(gg.graph, dbh, k, seed + 1000);
      }
      check_sne(gg.graph, k, seed);
    }
  }
}

// HDRF's balance term does what it claims: with a strong λ the edge
// balance on a hub-heavy graph is no worse than with λ ~ 0.
TEST(StreamSweep, HdrfLambdaImprovesBalance) {
  const auto gg = graph::gen::kkt_power(400, 6, 16, 5);
  const auto edges = stream_edges(gg.graph, 17);
  auto run = [&](double lambda) {
    StreamConfig cfg = make_config(gg.graph, 8, 23);
    cfg.lambda = lambda;
    HdrfPartitioner part(cfg);
    StreamRunOptions opt;
    opt.order_seed = 17;
    const auto res = run_edge_stream(gg.graph, part, opt);
    return graph::analyze_vertex_cut(gg.graph.num_vertices(), edges,
                                     res.assignments, 8)
        .edge_balance;
  };
  EXPECT_LE(run(5.0), run(0.01) + 1e-9);
}

// ---------------------------------------------------------------------------
// Determinism across pipeline shapes: workers 1/4/8, varying queue sizes.
// ---------------------------------------------------------------------------

TEST(StreamPipeline, BitIdenticalAcrossWorkerCounts) {
  const auto gg = graph::gen::erdos_renyi(1500, 9000, 42);
  for (const std::uint32_t k : {8u, 32u}) {
    for (int which = 0; which < 3; ++which) {
      std::vector<std::vector<BlockId>> runs;
      std::vector<std::uint64_t> fps;
      for (const std::uint32_t workers : {1u, 4u, 8u}) {
        StreamRunOptions opt;
        opt.workers = workers;
        opt.chunk_size = 64;      // many chunks in flight
        opt.queue_capacity = 3;   // force backpressure
        opt.order_seed = 5;
        StreamRunResult res;
        if (which == 2) {
          SnePartitioner part(make_config(gg.graph, k, 9));
          res = run_vertex_stream(gg.graph, part, opt);
        } else if (which == 1) {
          DbhPartitioner part(make_config(gg.graph, k, 9));
          res = run_edge_stream(gg.graph, part, opt);
        } else {
          HdrfPartitioner part(make_config(gg.graph, k, 9));
          res = run_edge_stream(gg.graph, part, opt);
        }
        runs.push_back(std::move(res.assignments));
        fps.push_back(res.fingerprint);
      }
      EXPECT_EQ(runs[0], runs[1]) << "method " << which << " k " << k;
      EXPECT_EQ(runs[0], runs[2]) << "method " << which << " k " << k;
      EXPECT_EQ(fps[0], fps[1]);
      EXPECT_EQ(fps[0], fps[2]);
      EXPECT_EQ(fps[0], assignment_fingerprint(runs[0]));
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded queue + pipeline failure semantics.
// ---------------------------------------------------------------------------

TEST(BoundedQueue, BlocksDrainsAndCloses) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  std::thread t([&] { EXPECT_TRUE(q.push(3)); });  // blocks until a pop
  auto a = q.pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 1);
  t.join();
  q.close();
  EXPECT_FALSE(q.push(4));  // closed: rejected
  // Already-queued items still drain after close...
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_EQ(*q.pop(), 3);
  // ...then pop reports end-of-stream.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::thread t([&] { EXPECT_FALSE(q.push(2)); });  // full: blocks, then fails
  q.close();
  t.join();
}

// A source that dies mid-stream: the pipeline must unwind every thread and
// rethrow, with workers > queue capacity to guarantee threads are parked
// on the bounded queues when the failure hits.
struct ThrowingEdgeSource {
  std::uint64_t chunks_emitted = 0;
  bool fill(EdgeChunk& chunk) {
    if (chunks_emitted == 5) throw std::runtime_error("source died");
    for (std::uint32_t i = 0; i < 64; ++i) {
      chunk.edges.push_back(StreamEdge{i, i + 1, 0, 0});
    }
    ++chunks_emitted;
    return true;
  }
};

TEST(StreamPipeline, MidStreamSourceExceptionShutsDownCleanly) {
  ThrowingEdgeSource source;
  PipelineOptions opt;
  opt.workers = 8;
  opt.queue_capacity = 2;
  std::atomic<std::uint64_t> consumed{0};
  EXPECT_THROW(
      run_pipeline<EdgeChunk>(
          source, [](EdgeChunk&) {},
          [&](EdgeChunk& c) { consumed += c.edges.size(); }, opt),
      std::runtime_error);
  // If any pipeline thread were still alive the test would hang/TSan-fail;
  // reaching here with some prefix consumed is the success criterion.
  EXPECT_LE(consumed.load(), 5u * 64u);
}

TEST(StreamPipeline, ConsumerExceptionUnblocksWorkersAndRethrows) {
  const auto gg = graph::gen::erdos_renyi(800, 4000, 3);
  CsrEdgeSource source(gg.graph, SourceOptions{32, 7});
  PipelineOptions opt;
  opt.workers = 8;
  opt.queue_capacity = 2;
  std::uint64_t chunks = 0;
  EXPECT_THROW(run_pipeline<EdgeChunk>(
                   source, [](EdgeChunk&) {},
                   [&](EdgeChunk&) {
                     if (++chunks == 3) throw std::logic_error("writer died");
                   },
                   opt),
               std::logic_error);
}

TEST(StreamPipeline, WorkerExceptionPropagates) {
  const auto gg = graph::gen::erdos_renyi(800, 4000, 3);
  CsrEdgeSource source(gg.graph, SourceOptions{32, 7});
  PipelineOptions opt;
  opt.workers = 4;
  opt.queue_capacity = 2;
  std::atomic<std::uint64_t> prepped{0};
  EXPECT_THROW(run_pipeline<EdgeChunk>(
                   source,
                   [&](EdgeChunk&) {
                     if (prepped.fetch_add(1) == 2) {
                       throw std::runtime_error("worker died");
                     }
                   },
                   [](EdgeChunk&) {}, opt),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// OnlineAssignment: concurrent lookups racing ingest.
// ---------------------------------------------------------------------------

TEST(OnlineAssignment, ServesLookupsDuringIngest) {
  const auto gg = graph::gen::erdos_renyi(2000, 12000, 8);
  const std::uint32_t k = 8;
  HdrfPartitioner part(make_config(gg.graph, k, 3));
  OnlineAssignment online(k);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t x = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(t + 1);
      while (!stop.load(std::memory_order_acquire)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;  // xorshift probe sequence, test-local
        const VertexId v =
            static_cast<VertexId>(x % gg.graph.num_vertices());
        const auto look = online.lookup(v);
        if (look.known) {
          // Any served answer must already be a valid placement.
          ASSERT_LT(look.primary, k);
          ASSERT_GE(look.replica_count, 1u);
          ASSERT_LE(look.replica_count, k);
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  StreamRunOptions opt;
  opt.workers = 4;
  opt.chunk_size = 64;
  opt.order_seed = 21;
  const StreamRunResult res = run_edge_stream(gg.graph, part, opt, &online);
  EXPECT_TRUE(online.sealed());
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(online.records(), res.assignments.size());

  // Post-seal: the store agrees exactly with the partitioner's tables.
  for (VertexId v = 0; v < gg.graph.num_vertices(); ++v) {
    const auto look = online.lookup(v);
    EXPECT_EQ(look.known, part.replicas(v) > 0);
    if (look.known) {
      EXPECT_EQ(look.replica_count, part.replicas(v));
      const auto blocks = online.replicas(v);
      EXPECT_TRUE(std::is_sorted(blocks.begin(), blocks.end()));
      EXPECT_EQ(blocks.size(), part.replicas(v));
    }
  }
}

TEST(OnlineAssignment, VertexModePrimaryIsTheAssignment) {
  const auto gg = graph::gen::grid2d(20, 20);
  const std::uint32_t k = 8;
  SnePartitioner part(make_config(gg.graph, k, 5));
  OnlineAssignment online(k);
  StreamRunOptions opt;
  opt.order_seed = 5;
  run_vertex_stream(gg.graph, part, opt, &online);
  const auto assignment = part.vertex_assignment();
  for (VertexId v = 0; v < gg.graph.num_vertices(); ++v) {
    const auto look = online.lookup(v);
    ASSERT_TRUE(look.known);
    EXPECT_EQ(look.primary, assignment[v]);
    EXPECT_EQ(look.replica_count, 1u);
  }
}

// ---------------------------------------------------------------------------
// Small pieces: BoundedMinHeap, ChunkPool.
// ---------------------------------------------------------------------------

TEST(BoundedMinHeap, KeepsTopCByScoreThenTie) {
  BoundedMinHeap<int> heap(3);
  heap.push(1.0, 50, 1);
  heap.push(3.0, 40, 3);
  heap.push(2.0, 30, 2);
  heap.push(5.0, 20, 5);   // evicts score 1.0
  heap.push(0.5, 10, 0);   // worse than everything kept: dropped
  const auto best = heap.sorted_best_first();
  ASSERT_EQ(best.size(), 3u);
  EXPECT_EQ(best[0].payload, 5);
  EXPECT_EQ(best[1].payload, 3);
  EXPECT_EQ(best[2].payload, 2);
}

TEST(ChunkPool, ReusesReleasedChunks) {
  ChunkPool<EdgeChunk> pool;
  EdgeChunk c = pool.acquire(0);
  c.edges.resize(100);
  pool.release(std::move(c));
  EdgeChunk d = pool.acquire(1);
  EXPECT_EQ(d.index, 1u);
  EXPECT_TRUE(d.edges.empty());          // reset on reuse
  EXPECT_GE(d.edges.capacity(), 100u);   // but capacity survived
  const auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

// The per-chunk obs spans ride a deterministic item-count clock, so the
// recorded lane — names, levels, timestamps, everything the serializing
// exporters emit — is bit-identical across pipeline worker counts, same
// as the assignments themselves.
TEST(StreamPipeline, ObsSpansAreIdenticalAcrossWorkerCounts) {
  const auto gg = graph::gen::erdos_renyi(1000, 6000, 6);
  auto record = [&](std::uint32_t workers) {
    obs::Recorder rec;
    {
      obs::ScopedRecording on(rec);
      HdrfPartitioner part(make_config(gg.graph, 8, 4));
      StreamRunOptions opt;
      opt.workers = workers;
      opt.chunk_size = 64;
      opt.order_seed = 4;
      run_edge_stream(gg.graph, part, opt);
    }
    EXPECT_EQ(rec.open_spans(), 0u);
    std::vector<std::tuple<std::string, std::string, std::int32_t, double>>
        events;
    for (const obs::Event& e : rec.lane(0)) {
      events.emplace_back(e.name, e.cat, e.level, e.t);
    }
    const auto metrics = rec.metrics().flatten();
    return std::make_pair(events, metrics);
  };
  const auto one = record(1);
  const auto eight = record(8);
  EXPECT_FALSE(one.first.empty());
  EXPECT_EQ(one.first, eight.first);
  EXPECT_EQ(one.second.at("stream/chunks"), eight.second.at("stream/chunks"));
  EXPECT_EQ(one.second.at("stream/edges"), eight.second.at("stream/edges"));
  EXPECT_EQ(one.second.at("stream/items"), eight.second.at("stream/items"));
}

// Chunk reuse actually happens end-to-end in a pipeline run.
TEST(StreamPipeline, SteadyStateReusesChunkBuffers) {
  const auto gg = graph::gen::erdos_renyi(2000, 10000, 4);
  HdrfPartitioner part(make_config(gg.graph, 8, 2));
  StreamRunOptions opt;
  opt.workers = 2;
  opt.chunk_size = 64;
  opt.order_seed = 2;
  const auto res = run_edge_stream(gg.graph, part, opt);
  EXPECT_GT(res.stats.chunks, 20u);
  EXPECT_EQ(res.stats.items, res.assignments.size());
  EXPECT_GT(res.stats.pool_hits, 0u);  // steady state: buffers recycled
}

}  // namespace
}  // namespace sp::stream
