// Seeded chaos sweep: hundreds of random fault schedules against the
// recovery machinery, on both execution backends. The contract under
// test (core/chaos_harness.hpp): every case either completes with a
// validator-clean partition or raises a structured
// RecoveryExhaustedError — never an unexpected exception and never a
// hang — and any failing seed replays bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "core/chaos_harness.hpp"
#include "core/scalapart.hpp"
#include "exec/executor.hpp"
#include "graph/generators.hpp"

namespace sp {
namespace {

// gtest prints a parameter that has no printer as its raw bytes, and the
// ctest name of each case carries that print. The padding is spelled out
// as zeroed members so that no uninitialised bytes, which differ from run
// to run, end up in the names.
struct ChaosParam {
  exec::Backend backend = exec::Backend::kFiber;
  std::uint8_t pad0[7] = {};
  std::uint64_t seed0 = 0;  // first case seed of this shard
  std::uint32_t seeds = 0;  // cases in this shard
  std::uint32_t pad1 = 0;
};
static_assert(std::has_unique_object_representations_v<ChaosParam>);

ChaosParam chaos_shard(exec::Backend backend, std::uint64_t seed0) {
  ChaosParam p;
  p.backend = backend;
  p.seed0 = seed0;
  p.seeds = 70;
  return p;
}

std::string chaos_param_name(
    const ::testing::TestParamInfo<ChaosParam>& info) {
  return std::string(exec::backend_name(info.param.backend)) + "_s" +
         std::to_string(info.param.seed0);
}

core::ScalaPartOptions chaos_base(exec::Backend backend) {
  core::ScalaPartOptions opt;
  opt.nranks = 8;
  opt.backend = backend;
  opt.threads = backend == exec::Backend::kThreads ? 8 : 0;
  return opt;
}

class ChaosSweep : public ::testing::TestWithParam<ChaosParam> {};

// Four shards x three backends: 12 x 70 = 840 seeded plans per full run.
TEST_P(ChaosSweep, CompleteOrStructuredError) {
  const ChaosParam p = GetParam();
  const auto g = graph::gen::delaunay(900, 42).graph;
  const auto base = chaos_base(p.backend);
  std::uint32_t completed = 0, exhausted = 0;
  for (std::uint64_t s = p.seed0; s < p.seed0 + p.seeds; ++s) {
    const auto r = core::run_chaos_case(g, base, s);
    ASSERT_TRUE(r.ok()) << "seed " << s << " [" << r.plan
                        << "] error: " << r.error;
    completed += r.completed ? 1 : 0;
    exhausted += r.exhausted ? 1 : 0;
  }
  // The sweep must actually exercise both legal outcomes, otherwise the
  // knob distribution has degenerated and the test is vacuous.
  EXPECT_GT(completed, 0u) << "no chaos case completed";
  EXPECT_GT(exhausted, 0u) << "no chaos case exhausted its budget";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ChaosSweep,
    ::testing::Values(chaos_shard(exec::Backend::kFiber, 0),
                      chaos_shard(exec::Backend::kFiber, 70),
                      chaos_shard(exec::Backend::kFiber, 140),
                      chaos_shard(exec::Backend::kFiber, 210),
                      chaos_shard(exec::Backend::kThreads, 0),
                      chaos_shard(exec::Backend::kThreads, 70),
                      chaos_shard(exec::Backend::kThreads, 140),
                      chaos_shard(exec::Backend::kThreads, 210),
                      chaos_shard(exec::Backend::kProcess, 0),
                      chaos_shard(exec::Backend::kProcess, 70),
                      chaos_shard(exec::Backend::kProcess, 140),
                      chaos_shard(exec::Backend::kProcess, 210)),
    chaos_param_name);

// A failing seed must replay bit-for-bit: same partition fingerprint,
// same RunStats fingerprint, on every backend. Sample a handful of
// seeds (some fault-free, some crashing, some exhausting) and re-run.
TEST(ChaosReplay, SeedsReplayBitForBit) {
  const auto g = graph::gen::delaunay(900, 42).graph;
  for (const std::uint64_t s : {3ull, 17ull, 40ull, 77ull, 123ull}) {
    SCOPED_TRACE("seed " + std::to_string(s));
    const auto fiber = core::run_chaos_case(g, chaos_base(exec::Backend::kFiber), s);
    const auto again = core::run_chaos_case(g, chaos_base(exec::Backend::kFiber), s);
    EXPECT_EQ(fiber.completed, again.completed) << fiber.plan;
    EXPECT_EQ(fiber.exhausted, again.exhausted);
    EXPECT_EQ(fiber.part_fp, again.part_fp);
    EXPECT_EQ(fiber.stats_fp, again.stats_fp);
    EXPECT_EQ(fiber.recoveries, again.recoveries);
    // The threads backend sees the identical schedule and result.
    const auto thr = core::run_chaos_case(g, chaos_base(exec::Backend::kThreads), s);
    EXPECT_EQ(fiber.completed, thr.completed) << fiber.plan;
    EXPECT_EQ(fiber.part_fp, thr.part_fp);
    EXPECT_EQ(fiber.stats_fp, thr.stats_fp);
  }
}

// Smaller, TSan-friendly slice: runs in the sanitizer CI leg (threads
// backend, T=8) to race-check the recovery/detector/checkpoint paths.
TEST(ChaosTsan, ThreadsBackendShortSweep) {
  const auto g = graph::gen::delaunay(600, 11).graph;
  const auto base = chaos_base(exec::Backend::kThreads);
  for (std::uint64_t s = 0; s < 12; ++s) {
    const auto r = core::run_chaos_case(g, base, s);
    ASSERT_TRUE(r.ok()) << "seed " << s << " [" << r.plan
                        << "] error: " << r.error;
  }
}

}  // namespace
}  // namespace sp
