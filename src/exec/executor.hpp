// Pluggable execution substrate for the SPMD runtime.
//
// An Executor runs R rank bodies to completion and provides the four
// primitives the BSP engine's rendezvous logic needs:
//
//   lock()/unlock()  one engine-wide critical section guarding all
//                    cross-rank rendezvous state;
//   block_until()    park the calling rank until a predicate over that
//                    state becomes true (the lock is released while
//                    parked and re-held on return);
//   notify()         wake parked ranks after mutating rendezvous state;
//   stall handler    invoked when no rank can make progress (mismatched
//                    collectives) to produce the error to surface.
//
// Three backends implement this contract:
//
//   kFiber    the deterministic cooperative scheduler: all ranks are
//             ucontext fibers on one OS thread, resumed in a configurable
//             Schedule order. lock()/unlock() are no-ops (there is no
//             concurrency); block_until() switches to the scheduler.
//
//   kThreads  one OS thread per rank, throttled to T runnable ranks
//             (ExecOptions::threads; 0 = hw_concurrency). The engine
//             lock is a real mutex. block_until() hands the rank's run
//             slot to the head of a FIFO run queue and sleeps on the
//             rank's own condvar; notify() signals only ranks whose
//             predicate now holds, each once it owns a slot, so T slots
//             always go to ranks that can run. Results are bit-identical
//             to the fiber backend because all rendezvous combining
//             happens in fixed group-rank order under the engine lock —
//             thread interleaving can only change *when* state mutates,
//             never the order contributions are folded in.
//
//   kProcess  ranks 1..R-1 are forked OS processes talking to the parent
//             over Unix-domain socket pairs (DESIGN.md §11); the engine
//             runs parent-side proxy fibers that replay each child's
//             comm operations, so rendezvous state stays parent-local.
//             The executor is the fiber one: the engine adds an idle
//             handler that pumps the sockets.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string_view>

#include "exec/schedule.hpp"

namespace sp::exec {

enum class Backend : std::uint8_t {
  kFiber,    // deterministic single-thread fiber scheduler
  kThreads,  // one thread per rank, T runnable at a time
  kProcess,  // one forked OS process per rank > 0, sockets to the parent
};

const char* backend_name(Backend b);

/// Parses "fiber" / "threads" / "process". Throws std::invalid_argument
/// on anything else.
Backend parse_backend(std::string_view name);

struct ExecOptions {
  Backend backend = Backend::kFiber;
  /// Worker-thread cap for kThreads (number of simultaneously runnable
  /// ranks); 0 = std::thread::hardware_concurrency(). Ignored by kFiber.
  std::uint32_t threads = 0;
  /// Per-rank fiber stack size (kFiber only).
  std::size_t stack_bytes = 256u << 10;
  /// Fiber resume order + shuffle seed (kFiber only).
  Schedule schedule = Schedule::kRoundRobin;
  std::uint64_t schedule_seed = 0x5EEDu;
};

/// Thrown through rank bodies to unwind them quietly when the run is
/// aborting (a peer hit a stall or fatal error and every parked rank must
/// retire so the executor can join). Deliberately not a std::exception:
/// user-level catch(std::exception&) must not swallow it. The engine's
/// rank wrapper catches it and records nothing.
struct RunAborted {};

class Executor {
 public:
  using RankBody = std::function<void(std::uint32_t rank)>;
  using ReadyFn = std::function<bool()>;
  /// Called (with the engine lock held) when no unfinished rank can make
  /// progress. Returns the exception to surface from run(), or nullptr if
  /// per-rank exceptions already recorded elsewhere explain the stall (the
  /// run then just aborts and the caller re-raises its own).
  using StallHandler = std::function<std::exception_ptr()>;

  virtual ~Executor() = default;

  /// Runs body(rank) for ranks [0, nranks) to completion. The body must
  /// not let exceptions escape (the engine records them per rank). May be
  /// called repeatedly. Throws what the stall handler returned if the run
  /// stalled.
  virtual void run(std::uint32_t nranks, const RankBody& body) = 0;

  /// Parks rank `rank` (the caller) until ready() returns true. Must be
  /// called with the engine lock held; the predicate is evaluated with it
  /// held, and it is re-held when this returns. Throws RunAborted if the
  /// run aborts while parked. The ReadyFn reference must outlive the call
  /// (the executor stores a pointer, no copy).
  virtual void block_until(std::uint32_t rank, const ReadyFn& ready) = 0;

  /// Re-evaluates parked ranks' predicates after a mutation that can
  /// complete a rendezvous (last arrival, poisoning); call it with the
  /// engine lock held. The threads backend makes runnable exactly the
  /// ranks whose predicate now holds and leaves the rest asleep, so a
  /// mutation that flips a predicate must be followed by notify(). The
  /// fiber sweep re-evaluates predicates itself and ignores the call.
  virtual void notify() = 0;

  /// Engine-wide critical section. No-op for kFiber.
  virtual void lock() = 0;
  virtual void unlock() = 0;

  /// Ranks that can execute simultaneously (1 for kFiber).
  virtual std::uint32_t concurrency() const = 0;

  /// Wall-clock seconds rank `rank` spent parked in block_until during the
  /// last run() — measured rendezvous-wait time, the executor-level input
  /// to the obs wall-clock stage profiler. Only the threads backend
  /// measures it (ranks really block there); kFiber returns 0.0 (parking
  /// is cooperative scheduling on one thread, not waiting). Diagnostic
  /// only: never part of any fingerprint or modeled clock.
  virtual double parked_wall_seconds(std::uint32_t rank) const {
    (void)rank;
    return 0.0;
  }

  virtual void set_stall_handler(StallHandler handler) = 0;

  /// Called when a scheduler sweep finds no runnable rank, *before* the
  /// stall handler: returns true if it made external progress (so parked
  /// predicates may now pass and the sweep should retry), false if there
  /// is nothing to wait for (a genuine stall). The process backend pumps
  /// its sockets here; the default ignores the handler, so backends with
  /// no external event source stall immediately as before.
  using IdleHandler = std::function<bool()>;
  virtual void set_idle_handler(IdleHandler handler) { (void)handler; }

  /// Builds the configured backend (kProcess runs on the fiber executor).
  static std::unique_ptr<Executor> make(const ExecOptions& options);
};

/// RAII engine lock.
class ExecLock {
 public:
  explicit ExecLock(Executor& ex) : ex_(ex) { ex_.lock(); }
  ~ExecLock() { ex_.unlock(); }
  ExecLock(const ExecLock&) = delete;
  ExecLock& operator=(const ExecLock&) = delete;

 private:
  Executor& ex_;
};

}  // namespace sp::exec
