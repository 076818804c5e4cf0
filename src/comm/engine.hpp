// Deterministic SPMD message-passing runtime.
//
// BspEngine runs P "ranks" on a pluggable execution backend (sp::exec):
// the default fiber backend cooperatively schedules all ranks on one OS
// thread; the threads backend runs each rank on its own thread, throttled
// to T runnable at a time; the process backend forks ranks 1..P-1 into
// real OS processes that speak the engine's packed frame format over
// Unix-domain sockets while parent-side proxy fibers replay their
// operations through the real rendezvous code (DESIGN.md §11). Ranks
// communicate only through the Comm API
// (MPI-flavoured collectives, bulk point-to-point supersteps, communicator
// splitting), so the algorithms written against it have exactly the
// communication structure of a real MPI implementation — runnable at
// P = 1024 on a laptop, and genuinely parallel when asked to be.
//
// Every operation is charged to a per-rank *virtual clock* using the
// CostModel (t_s / t_w / compute rate): this clock, not wall time, is what
// the scaling experiments report. Synchronization semantics are BSP-like:
// a collective completes at (max arrival clock among the group) + op cost,
// which matches the cost accounting in the paper's Section 3.1.
//
// Determinism holds on every backend: every rendezvous combines its
// contributions in fixed group-rank order under the engine lock, group
// ids are content-addressed, and nothing order-dependent leaks into
// results — so traces, clocks, and partitions are bit-identical across
// schedules, backends, and thread counts (DESIGN.md §7 has the argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <source_location>
#include <span>
#include <string>
#include <vector>

#include "analysis/signature.hpp"
#include "comm/cost_model.hpp"
#include "comm/fault_plan.hpp"
#include "comm/events.hpp"
#include "comm/trace.hpp"
#include "support/assert.hpp"

namespace sp::comm {

namespace detail {
class EngineImpl;
struct GroupInfo;
struct InboxEntry;
}  // namespace detail

enum class ReduceOp { kSum, kMin, kMax };

/// Raised (out of BspEngine::run) when the SPMD program deadlocks:
/// a full scheduler cycle makes no progress because ranks issued
/// mismatched collectives. The message names each blocked rank with the
/// operation kind, communicator group id, and collective sequence number
/// it is stuck in.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Raised on API misuse detectable at the call site (e.g. an exchange
/// packet addressed to a peer outside the communicator). The message
/// names the offending rank, value, and pipeline stage.
class CommUsageError : public std::logic_error {
 public:
  explicit CommUsageError(const std::string& msg) : std::logic_error(msg) {}
};

/// Raised when the cross-rank collective-matching lint detects divergent
/// SPMD call streams: two ranks met at the same rendezvous (communicator
/// group + sequence number) with incompatible operations — different
/// collective kinds, roots, element widths, or allreduce payload shapes.
/// The message names both ranks, both call sites (file:line via
/// std::source_location), both stages, and the mismatching attribute.
/// Subclasses CommUsageError so existing misuse handlers keep working.
class SpmdDivergenceError : public CommUsageError {
 public:
  explicit SpmdDivergenceError(const std::string& msg) : CommUsageError(msg) {}
};

/// A rank's endpoint within one process group. Obtained from
/// BspEngine::run (world communicator) or Comm::split. Each Comm carries
/// its own collective sequence counter: all members of a group must issue
/// the same sequence of collective calls (SPMD), as with MPI.
class Comm {
 public:
  std::uint32_t rank() const { return group_rank_; }
  std::uint32_t nranks() const;
  std::uint32_t world_rank() const { return world_rank_; }
  std::uint32_t world_size() const;

  /// Tags subsequent charges with a pipeline stage name (for Fig. 7/8
  /// style breakdowns).
  void set_stage(const std::string& stage);

  /// Current stage tag (lets library code retag a sub-operation and
  /// restore the caller's stage afterwards).
  const std::string& stage() const;

  /// Charge `units` work units of local computation to the virtual clock.
  void add_compute(double units);

  /// Current virtual clock, seconds.
  double clock() const;

  /// Cumulative modeled cost of this rank so far (all stages). Used by
  /// obs::Span to attribute comm/compute deltas to spans.
  CostSnapshot cost_snapshot() const;

  // ---- Collectives (all members must call; trivially-copyable T) ----
  //
  // Every operation captures its user call site via a defaulted
  // std::source_location parameter: the engine records a per-rank call
  // signature (kind, group, sequence number, element width, payload
  // shape, stage, call site) and cross-checks it against the other ranks
  // at rendezvous time, so a divergent SPMD program raises
  // SpmdDivergenceError naming both call sites instead of deadlocking.

  void barrier(std::source_location loc = std::source_location::current());

  template <typename T>
  T allreduce(const T& value, ReduceOp op,
              std::source_location loc = std::source_location::current()) {
    auto result = allreduce_vec(std::span<const T>(&value, 1), op, loc);
    return result[0];
  }

  /// Element-wise reduction of equal-length vectors.
  template <typename T>
  std::vector<T> allreduce_vec(
      std::span<const T> values, ReduceOp op,
      std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto combined = collective_(analysis::CollOp::kAllReduce,
                                as_bytes_(values), /*root=*/0,
                                make_combiner_<T>(op), /*counts=*/nullptr,
                                sizeof(T), analysis::CallSite::from(loc));
    return from_bytes_<T>(combined);
  }

  /// Everyone contributes one value; everyone receives all P values in
  /// group-rank order.
  template <typename T>
  std::vector<T> allgather(
      const T& value,
      std::source_location loc = std::source_location::current()) {
    return allgatherv(std::span<const T>(&value, 1), nullptr, loc);
  }

  /// Variable-size contributions, concatenated in group-rank order.
  /// `counts` (optional out) receives each rank's element count.
  template <typename T>
  std::vector<T> allgatherv(
      std::span<const T> values, std::vector<std::size_t>* counts = nullptr,
      std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto combined = collective_(analysis::CollOp::kAllGather,
                                as_bytes_(values), /*root=*/0, nullptr, counts,
                                sizeof(T), analysis::CallSite::from(loc));
    if (counts) {
      for (auto& c : *counts) c /= sizeof(T);
    }
    return from_bytes_<T>(combined);
  }

  /// Root receives the concatenation; others receive empty.
  template <typename T>
  std::vector<T> gatherv(
      std::span<const T> values, std::uint32_t root,
      std::vector<std::size_t>* counts = nullptr,
      std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto combined = collective_(analysis::CollOp::kGather, as_bytes_(values),
                                root, nullptr, counts, sizeof(T),
                                analysis::CallSite::from(loc));
    if (counts) {
      for (auto& c : *counts) c /= sizeof(T);
    }
    if (rank() != root) return {};
    return from_bytes_<T>(combined);
  }

  /// Root's data reaches everyone.
  template <typename T>
  std::vector<T> broadcast_vec(
      std::span<const T> values, std::uint32_t root,
      std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::span<const T> mine =
        rank() == root ? values : std::span<const T>{};
    auto combined = collective_(analysis::CollOp::kBroadcast, as_bytes_(mine),
                                root, nullptr, /*counts=*/nullptr, sizeof(T),
                                analysis::CallSite::from(loc));
    return from_bytes_<T>(combined);
  }

  template <typename T>
  T broadcast(const T& value, std::uint32_t root,
              std::source_location loc = std::source_location::current()) {
    auto v = broadcast_vec(std::span<const T>(&value, 1), root, loc);
    return v[0];
  }

  // ---- Bulk point-to-point superstep ----

  struct Packet {
    std::uint32_t peer = 0;  // group rank (destination on send, source on recv)
    std::vector<std::byte> data;
  };

  /// Sends each packet to its peer; returns the packets addressed to this
  /// rank (sorted by source, then send order). All group members must call
  /// (possibly with empty outgoing). This is the halo-exchange primitive.
  std::vector<Packet> exchange(
      std::vector<Packet> outgoing,
      std::source_location loc = std::source_location::current());

  /// Typed convenience wrapper over exchange. Serialisation buffers come
  /// from this rank's BufferArena and received buffers are recycled into
  /// it after conversion, so steady-state supersteps allocate nothing.
  template <typename T>
  std::vector<std::pair<std::uint32_t, std::vector<T>>> exchange_typed(
      const std::vector<std::pair<std::uint32_t, std::vector<T>>>& outgoing,
      std::source_location loc = std::source_location::current()) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<Packet> raw;
    raw.reserve(outgoing.size());
    for (const auto& [peer, values] : outgoing) {
      Packet p;
      p.peer = peer;
      p.data = pack_bytes_(values.data(), values.size() * sizeof(T));
      raw.push_back(std::move(p));
    }
    auto in = exchange(std::move(raw), loc);
    std::vector<std::pair<std::uint32_t, std::vector<T>>> out;
    out.reserve(in.size());
    for (auto& p : in) {
      out.emplace_back(p.peer, from_bytes_<T>(p.data));
      recycle_(std::move(p.data));
    }
    return out;
  }

  /// Returns an inbox buffer (from exchange) to this rank's arena for
  /// reuse by later supersteps. Optional — dropping the buffer is always
  /// correct — but recycling keeps steady-state supersteps allocation-free.
  void recycle_buffer(std::vector<std::byte>&& data) {
    recycle_(std::move(data));
  }

  // ---- Communicator management ----

  /// Collective: partitions the group by `color`; members of each color
  /// form a new group ordered by (key, world rank). Returns this rank's
  /// new communicator.
  Comm split(std::uint32_t color, std::uint32_t key,
             std::source_location loc = std::source_location::current());

  /// Collective among the *survivors* of this group: returns a new
  /// communicator containing exactly the non-failed members, in the old
  /// group order (ULFM MPI_Comm_shrink). Unlike every other operation,
  /// shrink does not raise RankFailedError for members that are already
  /// dead — that is its purpose; a rank that dies while the shrink is in
  /// flight makes the shrink itself restart transparently. Call once per
  /// observed failure (after catching RankFailedError); the traced cost
  /// is that of a small allgather over the survivors.
  Comm shrink(std::source_location loc = std::source_location::current());

  // ---- Host (parent-process) memory seam ----
  //
  // Under the multi-process backend a rank body runs in a forked child:
  // writes to rank-shared host state (the analysis::SharedSpan /
  // shared_store slots) must reach the *parent's* memory to be visible
  // after the run. These accessors are that seam: in the parent (fiber /
  // threads backends, or world rank 0 of a process run) they are plain
  // memory accesses; in a child they ship the access over the RPC socket,
  // where FIFO ordering against this rank's rendezvous traffic preserves
  // the write -> barrier -> read discipline. Fork keeps every pre-fork
  // address (and function address) valid in both processes, which is what
  // makes the raw-address and thunk forms sound. Zero modeled cost.

  /// True when this rank body executes in a forked child process (reads
  /// of host state return stale copy-on-write snapshots unless routed
  /// through host_load / the thunk calls).
  bool remote_memory() const;

  /// Copies `len` bytes to / from parent-process memory at `addr` (which
  /// must be a pre-fork-stable address of trivially-copyable data).
  void host_store(void* addr, const void* src, std::size_t len) const;
  void host_load(const void* addr, void* dst, std::size_t len) const;

  /// Host-call thunks: plain function pointers (valid across fork)
  /// executed in the parent process with a pre-fork-stable context
  /// pointer. The store form ships a byte payload to the parent; the
  /// load form returns bytes produced in the parent. These carry
  /// non-trivially-copyable updates (vector assigns, persist callbacks)
  /// across the process boundary.
  using HostStoreThunk = void (*)(void* ctx, const std::byte* data,
                                  std::size_t len);
  using HostLoadThunk = void (*)(const void* ctx,
                                 std::vector<std::byte>& out);
  void host_call_store(HostStoreThunk fn, void* ctx, const std::byte* data,
                       std::size_t len) const;
  std::vector<std::byte> host_call_load(HostLoadThunk fn,
                                        const void* ctx) const;

 private:
  friend class detail::EngineImpl;
  using Combiner = std::function<void(std::vector<std::byte>&,
                                      const std::vector<std::byte>&)>;

  Comm(detail::EngineImpl* engine, std::shared_ptr<detail::GroupInfo> group,
       std::uint32_t group_rank, std::uint32_t world_rank);

  /// Type-erased collective core (defined in engine.cpp); `op` is one of
  /// the five collective kinds. `elem_width` is sizeof(T) at the typed
  /// call site (0 = untyped), recorded into the call signature the
  /// matching lint validates across ranks. Takes a resolved CallSite (not
  /// a source_location) so the process backend's proxy fibers can replay
  /// a child rank's operation under the child's original call site.
  std::vector<std::byte> collective_(analysis::CollOp op,
                                     std::vector<std::byte> payload,
                                     std::uint32_t root, Combiner combiner,
                                     std::vector<std::size_t>* counts,
                                     std::uint32_t elem_width,
                                     const analysis::CallSite& site);

  // CallSite-based internals behind the public exchange/split/shrink
  // wrappers, shared by the direct (fiber/threads) path and the process
  // backend's proxy replay. exchange is further split around the wire
  // boundary: exchange_core_ runs the full rendezvous/fault/cost pipeline
  // and returns the coalesced inbox entries *packed* (what a child is
  // sent verbatim — the packing is the wire format); unpack_entries_
  // expands them into packets via this rank's arena (thread-confined, so
  // it runs without the engine lock, in whichever process the rank body
  // lives).
  std::vector<Packet> exchange_(std::vector<Packet> outgoing,
                                const analysis::CallSite& site);
  std::vector<detail::InboxEntry> exchange_core_(
      std::vector<Packet> outgoing, const analysis::CallSite& site);
  std::vector<Packet> unpack_entries_(std::vector<detail::InboxEntry> entries);
  Comm split_(std::uint32_t color, std::uint32_t key,
              const analysis::CallSite& site);
  Comm shrink_(const analysis::CallSite& site);

  /// Copies `bytes` bytes from `src` into a buffer acquired from this
  /// rank's arena (defined in engine.cpp; arenas are thread-confined so
  /// this needs no lock).
  std::vector<std::byte> pack_bytes_(const void* src, std::size_t bytes);

  /// Releases a buffer into this rank's arena.
  void recycle_(std::vector<std::byte>&& data);

  template <typename T>
  static std::vector<std::byte> as_bytes_(std::span<const T> values) {
    std::vector<std::byte> bytes(values.size_bytes());
    if (!bytes.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
    return bytes;
  }

  template <typename T>
  static std::vector<T> from_bytes_(const std::vector<std::byte>& bytes) {
    SP_ASSERT(bytes.size() % sizeof(T) == 0);
    std::vector<T> values(bytes.size() / sizeof(T));
    if (!bytes.empty()) std::memcpy(values.data(), bytes.data(), bytes.size());
    return values;
  }

  template <typename T>
  static Combiner make_combiner_(ReduceOp op) {
    return [op](std::vector<std::byte>& acc, const std::vector<std::byte>& in) {
      SP_ASSERT_MSG(acc.size() == in.size(),
                    "allreduce contributions must have equal size");
      auto* a = reinterpret_cast<T*>(acc.data());
      const auto* b = reinterpret_cast<const T*>(in.data());
      std::size_t n = acc.size() / sizeof(T);
      for (std::size_t i = 0; i < n; ++i) {
        switch (op) {
          case ReduceOp::kSum:
            a[i] = a[i] + b[i];
            break;
          case ReduceOp::kMin:
            a[i] = b[i] < a[i] ? b[i] : a[i];
            break;
          case ReduceOp::kMax:
            a[i] = a[i] < b[i] ? b[i] : a[i];
            break;
        }
      }
    };
  }

  detail::EngineImpl* engine_;
  std::shared_ptr<detail::GroupInfo> group_;
  std::uint32_t group_rank_;
  std::uint32_t world_rank_;
  std::uint64_t seq_ = 0;
};

class BspEngine {
 public:
  struct Options {
    std::uint32_t nranks = 4;
    CostModel model = CostModel::nehalem_qdr();
    /// Execution backend: kFiber (deterministic cooperative scheduler,
    /// the default) or kThreads (one thread per rank, `threads` runnable
    /// at a time). Results are bit-identical across backends.
    exec::Backend backend = exec::Backend::kFiber;
    /// Worker-thread cap for the threads backend; 0 = hw_concurrency.
    std::uint32_t threads = 0;
    /// Fiber stack size. Algorithms here recurse shallowly; 1 MiB is ample
    /// and keeps P=1024 within 1 GiB of (lazily mapped) stack.
    std::size_t stack_bytes = 256u << 10;
    /// Deterministic faults to inject (empty = fault-free run). Validated
    /// against `nranks` at engine construction (FaultPlanError on a fault
    /// that could never fire as written).
    FaultPlan faults;
    /// Deterministic timeout-based failure detection on the modeled clock
    /// (off by default; see FailureDetectorOptions). When enabled, every
    /// completed rendezvous checks member arrival lag against the
    /// deadline; a suspect that exhausts its retry budget is declared
    /// failed exactly as a fault-plan crash would be.
    FailureDetectorOptions detector;
    /// Fiber resume order. A correct SPMD program produces bit-identical
    /// results under every schedule; the determinism auditor
    /// (analysis/determinism.hpp) exploits this to flag ordering bugs.
    Schedule schedule = Schedule::kRoundRobin;
    /// Seed for Schedule::kSeededShuffle (ignored otherwise).
    std::uint64_t schedule_seed = 0x5EEDu;
  };

  explicit BspEngine(Options options);
  ~BspEngine();
  BspEngine(const BspEngine&) = delete;
  BspEngine& operator=(const BspEngine&) = delete;

  /// Runs `program(comm)` on every rank to completion; returns per-rank
  /// virtual clocks and traces. May be called repeatedly (fresh clocks per
  /// run). Exceptions thrown by any rank propagate out (first rank wins).
  /// Ranks killed by the fault plan are reported in RunStats::failed_ranks,
  /// not as exceptions — unless a surviving rank lets the resulting
  /// RankFailedError escape, or every rank died (then run throws it).
  RunStats run(const std::function<void(Comm&)>& program);

 private:
  std::unique_ptr<detail::EngineImpl> impl_;
};

}  // namespace sp::comm
