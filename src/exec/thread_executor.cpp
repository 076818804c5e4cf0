// The multithreaded backend: one OS thread per rank, throttled so at most
// T ranks run at once (T = ExecOptions::threads, default hw_concurrency).
//
// Wakes are targeted: each rank sleeps on its own condvar and is signalled
// only once it can run — its park predicate holds and it owns a run slot.
// notify() evaluates the parked ranks' predicates and makes runnable only
// the ranks whose predicate now holds. Each such rank takes a free run slot
// (one signal) or joins a FIFO run queue, and a rank that parks or finishes
// hands its slot straight to the head of that queue. So the T slots always
// go to ranks that can run — the throttle can never deadlock the rendezvous
// protocol — and no rank wakes only to find its predicate false or every
// slot taken.
//
// One mutex (the engine lock) guards all cross-rank rendezvous state and
// the bookkeeping here. Its critical sections are short (arrival
// bookkeeping and payload splicing), while all real work — the
// partitioner's compute between collectives — runs outside the lock, in
// parallel.
//
// Stall detection mirrors the fiber sweep: when every unfinished rank is
// parked, the last rank to park (or finish) evaluates their predicates and
// makes runnable any that holds. If none does, no predicate can ever flip
// (only running ranks mutate rendezvous state), so the run has stalled:
// that rank obtains the error to surface from the stall handler and aborts
// the run. Every queued and parked rank wakes, and the parked ones unwind
// with RunAborted so the executor can join their threads.
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/backends.hpp"
#include "support/assert.hpp"

namespace sp::exec::detail {

namespace {

class ThreadExecutor final : public Executor {
 public:
  explicit ThreadExecutor(const ExecOptions& options) {
    slots_ = options.threads != 0 ? options.threads
                                  : std::max(1u, std::thread::hardware_concurrency());
  }

  void run(std::uint32_t nranks, const RankBody& body) override {
    {
      std::lock_guard<std::mutex> l(mu_);
      ranks_ = std::vector<RankWait>(nranks);
      parked_s_.assign(nranks, 0.0);
      run_queue_.clear();
      aborting_ = false;
      run_error_ = nullptr;
      active_ = nranks;
      parked_ = 0;
      slots_in_use_ = 0;
    }
    std::vector<std::thread> threads;
    threads.reserve(nranks);
    for (std::uint32_t r = 0; r < nranks; ++r) {
      threads.emplace_back([this, &body, r] { rank_thread_(body, r); });
    }
    for (std::thread& t : threads) t.join();
    if (run_error_) std::rethrow_exception(run_error_);
  }

  void block_until(std::uint32_t rank, const ReadyFn& ready) override {
    // The caller holds mu_ via lock(); adopt it for the wait and hand it
    // back (still held) on every exit path, including the throw — the
    // caller's ExecLock releases it during unwinding.
    if (ready()) return;
    std::unique_lock<std::mutex> l(mu_, std::adopt_lock);
    // Measured rendezvous wait: wall time from park to return (including
    // the run-queue wait — both are time the rank was not computing).
    // Reported to the obs profiler via parked_wall_seconds(); never
    // consumed by the engine or the modeled clocks.
    // sp-lint-allow(wall-clock): reported diagnostic, never consumed
    const auto park_begin = std::chrono::steady_clock::now();
    RankWait& me = ranks_[rank];
    me.pred = &ready;
    ++parked_;
    release_slot_();
    maybe_stall_();
    await_slot_(l, me);
    // Still parked after the wait means the run aborted before the
    // predicate held.
    const bool unwind = me.pred != nullptr;
    if (unwind) {
      me.pred = nullptr;
      --parked_;
    }
    charge_park_(rank, park_begin);
    l.release();
    if (unwind) throw RunAborted{};
  }

  void notify() override {
    // Callers hold the engine lock (mu_), so parked_ is stable here.
    // Exchange-heavy programs call notify() once per rendezvous
    // completion, so the skip with nobody parked is hot. Mid-abort the
    // parked ranks must unwind, not run.
    if (parked_ == 0 || aborting_) return;
    wake_ready_();
  }

  void lock() override { mu_.lock(); }
  void unlock() override { mu_.unlock(); }

  std::uint32_t concurrency() const override { return slots_; }

  double parked_wall_seconds(std::uint32_t rank) const override {
    // Queried after run() returns (threads joined), so no lock is needed.
    return rank < parked_s_.size() ? parked_s_[rank] : 0.0;
  }

  void set_stall_handler(StallHandler handler) override {
    stall_ = std::move(handler);
  }

 private:
  /// One rank's wait state, guarded by mu_.
  struct RankWait {
    std::condition_variable cv;
    const ReadyFn* pred = nullptr;  // set while parked on a false predicate
    bool granted = false;           // handed a run slot, not yet awake
  };

  void rank_thread_(const RankBody& body, std::uint32_t rank) {
    {
      std::unique_lock<std::mutex> l(mu_);
      make_runnable_(rank);
      await_slot_(l, ranks_[rank]);
    }
    body(rank);  // the engine's rank wrapper lets nothing escape
    {
      std::lock_guard<std::mutex> l(mu_);
      release_slot_();
      --active_;
      // A finishing rank can strand its peers (e.g. it threw out of a
      // collective its group is still parked in) — re-check for stall.
      maybe_stall_();
    }
  }

  /// With mu_ held (through `l`): sleeps until this rank is handed a run
  /// slot. On abort it takes one regardless — oversubscribing, since the
  /// throttle no longer matters — so the thread epilogue's release
  /// balances.
  void await_slot_(std::unique_lock<std::mutex>& l, RankWait& me) {
    while (!me.granted && !aborting_) me.cv.wait(l);
    if (me.granted) {
      me.granted = false;
    } else {
      ++slots_in_use_;
    }
  }

  /// With mu_ held: gives rank `r` a run slot and its one signal.
  void grant_(std::uint32_t r) {
    ranks_[r].granted = true;
    ranks_[r].cv.notify_one();
  }

  /// With mu_ held: rank `r` can run. It takes a free slot or queues for
  /// one.
  void make_runnable_(std::uint32_t r) {
    if (slots_in_use_ < slots_) {
      ++slots_in_use_;
      grant_(r);
    } else {
      run_queue_.push_back(r);
    }
  }

  /// With mu_ held: a parking or finishing rank hands its slot straight to
  /// the head of the run queue, or frees it when nobody waits. A slot is
  /// free only while the queue is empty.
  void release_slot_() {
    SP_ASSERT(slots_in_use_ > 0);
    if (run_queue_.empty()) {
      --slots_in_use_;
      return;
    }
    const std::uint32_t next = run_queue_.front();
    run_queue_.pop_front();
    grant_(next);
  }

  /// With mu_ held: makes runnable every parked rank whose predicate
  /// holds. Returns whether any did.
  bool wake_ready_() {
    bool woke = false;
    for (std::uint32_t r = 0; r < ranks_.size(); ++r) {
      RankWait& w = ranks_[r];
      if (w.pred == nullptr || !(*w.pred)()) continue;
      w.pred = nullptr;
      --parked_;
      make_runnable_(r);
      woke = true;
    }
    return woke;
  }

  /// With mu_ held: folds one completed park into the rank's wait total.
  void charge_park_(
      std::uint32_t rank,
      std::chrono::steady_clock::time_point begin) {  // sp-lint-allow(wall-clock): diagnostic plumbing
    // sp-lint-allow(wall-clock): reported diagnostic, never consumed
    const auto now = std::chrono::steady_clock::now();
    parked_s_[rank] += std::chrono::duration<double>(now - begin).count();
  }

  /// With mu_ held: declares a stall when every unfinished rank is parked
  /// on a false predicate. Ranks queued for a run slot never block this
  /// (they hold no predicate and will run once a parking rank hands them
  /// its slot), so detection fires exactly when no progress is possible.
  void maybe_stall_() {
    if (aborting_ || active_ == 0 || parked_ < active_) return;
    if (wake_ready_()) return;
    run_error_ = stall_ ? stall_() : nullptr;
    aborting_ = true;
    run_queue_.clear();
    for (RankWait& w : ranks_) w.cv.notify_one();
  }

  std::mutex mu_;
  std::uint32_t slots_ = 1;          // T: max simultaneously runnable ranks
  std::uint32_t slots_in_use_ = 0;   // guarded by mu_, as is all below
  std::uint32_t active_ = 0;         // unfinished ranks
  std::uint32_t parked_ = 0;         // ranks with a predicate set
  std::vector<RankWait> ranks_;
  std::deque<std::uint32_t> run_queue_;  // runnable, waiting for a slot
  std::vector<double> parked_s_;
  bool aborting_ = false;
  std::exception_ptr run_error_;
  StallHandler stall_;
};

}  // namespace

std::unique_ptr<Executor> make_thread_executor(const ExecOptions& options) {
  return std::make_unique<ThreadExecutor>(options);
}

}  // namespace sp::exec::detail
