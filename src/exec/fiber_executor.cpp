// The deterministic cooperative backend: every rank is a ucontext fiber
// on the calling thread, resumed in Schedule order. This is the scheduler
// that used to live inside comm/engine.cpp, generalized to park ranks on
// arbitrary predicates instead of rendezvous pointers.
//
// Progress/deadlock detection: a full sweep that resumes no fiber means
// every unfinished rank is parked on a false predicate — since predicates
// only flip when some rank runs, nothing will ever change: the run has
// stalled (mismatched collectives, or peers of a crashed/thrown rank).
// The stall handler decides what to surface.
#include <ucontext.h>

#include <memory>
#include <vector>

#include "exec/backends.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

// ThreadSanitizer does not understand ucontext stack switching by itself;
// the fiber annotations below teach it which (shadow) stack is live so
// the TSAN CI leg can run fiber-backend code without false positives.
#if defined(__SANITIZE_THREAD__)
#define SP_EXEC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SP_EXEC_TSAN 1
#endif
#endif
#ifdef SP_EXEC_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// AddressSanitizer likewise needs to know which stack is live: unaware
// of a switch, its handling of a throw on a fiber stack takes the fiber
// for an unknown stack and reports a stack-buffer-overflow in its own
// code. Each switch is bracketed by start (naming the stack being
// entered) and finish (on arrival, learning the stack that was left).
#if defined(__SANITIZE_ADDRESS__)
#define SP_EXEC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SP_EXEC_ASAN 1
#endif
#endif
#ifdef SP_EXEC_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

namespace sp::exec::detail {

namespace {

class FiberExecutor final : public Executor {
 public:
  explicit FiberExecutor(const ExecOptions& options) : opt_(options) {
#ifdef SP_EXEC_TSAN
    // TSAN instrumentation inflates stack frames several-fold; the
    // default 256KiB fiber stacks overflow and corrupt TSAN's shadow
    // state (crashes far from the overflow). Grow them under TSAN only.
    if (opt_.stack_bytes < (1u << 20)) opt_.stack_bytes = 1u << 20;
#endif
  }

  ~FiberExecutor() override {
#ifdef SP_EXEC_TSAN
    for (Fiber& f : fibers_) {
      if (f.tsan_fiber != nullptr) __tsan_destroy_fiber(f.tsan_fiber);
    }
#endif
  }

  void run(std::uint32_t nranks, const RankBody& body) override {
    body_ = &body;
    if (fibers_.size() != nranks) fibers_ = std::vector<Fiber>(nranks);
    finished_.assign(nranks, false);
    parked_.assign(nranks, nullptr);
#ifdef SP_EXEC_TSAN
    scheduler_tsan_ = __tsan_get_current_fiber();
#endif
    for (std::uint32_t r = 0; r < nranks; ++r) {
      // Default-initialized (not zeroed): at P=1024 zeroing the stacks
      // would cost more than entire runs.
      if (!fibers_[r].stack) fibers_[r].stack.reset(new char[opt_.stack_bytes]);
#ifdef SP_EXEC_TSAN
      if (fibers_[r].tsan_fiber == nullptr) {
        fibers_[r].tsan_fiber = __tsan_create_fiber(0);
      }
#endif
      const int get_rc = getcontext(&fibers_[r].ctx);
      SP_ASSERT(get_rc == 0);
      fibers_[r].ctx.uc_stack.ss_sp = fibers_[r].stack.get();
      fibers_[r].ctx.uc_stack.ss_size = opt_.stack_bytes;
      fibers_[r].ctx.uc_link = &scheduler_ctx_;
      makecontext(&fibers_[r].ctx, &FiberExecutor::trampoline_, 0);
    }

    std::vector<std::uint32_t> order(nranks);
    for (std::uint32_t r = 0; r < nranks; ++r) {
      order[r] = opt_.schedule == Schedule::kReversed ? nranks - 1 - r : r;
    }
    Rng sched_rng(hash64(opt_.schedule_seed ^ 0x5C4EDu));
    std::uint32_t remaining = nranks;
    while (remaining > 0) {
      if (opt_.schedule == Schedule::kSeededShuffle) sched_rng.shuffle(order);
      bool progressed = false;
      for (std::uint32_t r : order) {
        if (finished_[r]) continue;
        if (parked_[r] != nullptr && !(*parked_[r])()) continue;
        resume_(r);
        progressed = true;
        if (finished_[r]) --remaining;
      }
      if (!progressed && remaining > 0) {
        // No runnable fiber. Give the idle handler (the process backend's
        // socket pump) a chance to make external progress before calling
        // it a stall.
        if (idle_ && idle_()) continue;
        // Stalled. The handler returns the error to surface, or nullptr
        // when per-rank exceptions already explain it (the engine
        // re-raises what it recorded). Either way every parked fiber is
        // resumed once to unwind with RunAborted, as the threads backend
        // does, so what its frames hold is released.
        std::exception_ptr err = stall_ ? stall_() : nullptr;
        aborting_ = true;
        for (std::uint32_t r : order) {
          if (!finished_[r]) resume_(r);
        }
        aborting_ = false;
        if (err) std::rethrow_exception(err);
        return;
      }
    }
  }

  void block_until(std::uint32_t rank, const ReadyFn& ready) override {
    SP_ASSERT(rank == current_rank_);
    if (ready()) return;
    if (!aborting_) {
      parked_[rank] = &ready;
      switch_to_scheduler_(rank);
      parked_[rank] = nullptr;
    }
    // The scheduler resumes a parked rank once its predicate holds, or
    // once to unwind it when the run aborts.
    if (aborting_) throw RunAborted{};
  }

  void notify() override {}  // the sweep re-evaluates predicates itself

  void lock() override {}
  void unlock() override {}

  std::uint32_t concurrency() const override { return 1; }

  void set_stall_handler(StallHandler handler) override {
    stall_ = std::move(handler);
  }

  void set_idle_handler(IdleHandler handler) override {
    idle_ = std::move(handler);
  }

 private:
  struct Fiber {
    ucontext_t ctx{};
    std::unique_ptr<char[]> stack;
#ifdef SP_EXEC_TSAN
    void* tsan_fiber = nullptr;
#endif
  };

  void resume_(std::uint32_t r) {
    current_rank_ = r;
    current_exec_ = this;
#ifdef SP_EXEC_TSAN
    __tsan_switch_to_fiber(fibers_[r].tsan_fiber, 0);
#endif
#ifdef SP_EXEC_ASAN
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, fibers_[r].stack.get(),
                                   opt_.stack_bytes);
#endif
    const int swap_rc = swapcontext(&scheduler_ctx_, &fibers_[r].ctx);
#ifdef SP_EXEC_ASAN
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    SP_ASSERT(swap_rc == 0);
  }

  void switch_to_scheduler_(std::uint32_t r) {
#ifdef SP_EXEC_TSAN
    __tsan_switch_to_fiber(scheduler_tsan_, 0);
#endif
#ifdef SP_EXEC_ASAN
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, scheduler_stack_,
                                   scheduler_stack_bytes_);
#endif
    const int swap_rc = swapcontext(&fibers_[r].ctx, &scheduler_ctx_);
#ifdef SP_EXEC_ASAN
    __sanitizer_finish_switch_fiber(fake_stack, &scheduler_stack_,
                                    &scheduler_stack_bytes_);
#endif
    SP_ASSERT(swap_rc == 0);
    current_exec_ = this;  // restored for safety after resume
  }

  static void trampoline_() {
    FiberExecutor* exec = current_exec_;
    const std::uint32_t rank = exec->current_rank_;
#ifdef SP_EXEC_ASAN
    __sanitizer_finish_switch_fiber(nullptr, &exec->scheduler_stack_,
                                    &exec->scheduler_stack_bytes_);
#endif
    // The engine's rank wrapper catches everything; nothing escapes here.
    (*exec->body_)(rank);
    exec->finished_[rank] = true;
#ifdef SP_EXEC_ASAN
    // The fiber ends here: no fake stack to keep.
    __sanitizer_start_switch_fiber(nullptr, exec->scheduler_stack_,
                                   exec->scheduler_stack_bytes_);
#endif
#ifdef SP_EXEC_TSAN
    // Leave via explicit setcontext, not the uc_link return: the compiler
    // plants __tsan_func_exit at the return, and after the switch
    // annotation below it would pop the *scheduler's* shadow stack —
    // repeated fiber completions corrupt it and TSAN crashes much later.
    __tsan_switch_to_fiber(exec->scheduler_tsan_, 0);
    setcontext(&exec->scheduler_ctx_);
#endif
    // uc_link returns to the scheduler.
  }

  ExecOptions opt_;
  const RankBody* body_ = nullptr;
  std::vector<Fiber> fibers_;
  ucontext_t scheduler_ctx_{};
#ifdef SP_EXEC_TSAN
  void* scheduler_tsan_ = nullptr;
#endif
#ifdef SP_EXEC_ASAN
  // The scheduler's stack, as the last switch away from it reported.
  const void* scheduler_stack_ = nullptr;
  std::size_t scheduler_stack_bytes_ = 0;
#endif
  std::uint32_t current_rank_ = 0;
  static thread_local FiberExecutor* current_exec_;

  std::vector<bool> finished_;
  std::vector<const ReadyFn*> parked_;
  bool aborting_ = false;  // set while a stalled run unwinds its fibers
  StallHandler stall_;
  IdleHandler idle_;
};

thread_local FiberExecutor* FiberExecutor::current_exec_ = nullptr;

}  // namespace

std::unique_ptr<Executor> make_fiber_executor(const ExecOptions& options) {
  return std::make_unique<FiberExecutor>(options);
}

}  // namespace sp::exec::detail
