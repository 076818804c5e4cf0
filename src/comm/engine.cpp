#include "comm/engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "comm/arena.hpp"
#include "comm/process_host.hpp"
#include "comm/process_proto.hpp"
#include "comm/wire.hpp"
#include "exec/executor.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace sp::comm {

namespace detail {

struct GroupInfo {
  std::uint64_t id = 0;
  std::vector<std::uint32_t> members;  // world ranks, group order
};

namespace {
double ceil_log2(std::uint32_t p) {
  return p <= 1 ? 0.0 : std::ceil(std::log2(static_cast<double>(p)));
}

bool contains_rank(const std::vector<std::uint32_t>& members,
                   std::uint32_t world_rank) {
  return std::find(members.begin(), members.end(), world_rank) !=
         members.end();
}
}  // namespace

/// One sender's contribution to a destination mailbox. All of a sender's
/// packets to one destination collapse into a single `packed` entry
/// framed as repeated [u64 payload length][payload bytes] — one message
/// per peer, so the LogP accounting charges one t_s startup per
/// destination. A lone packet travels unpacked, buffer moved end to end
/// with zero copies.
struct InboxEntry {
  std::uint32_t src = 0;  // sender's group rank
  bool packed = false;
  std::vector<std::byte> data;
};

/// One rank's modeled charge for a completed rendezvous.
struct Charge {
  double seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  bool is_collective = true;
};

namespace {
/// Appends one [u64 length][payload] frame to a packed buffer.
void append_frame(std::vector<std::byte>& buf,
                  const std::vector<std::byte>& payload) {
  const std::uint64_t len = payload.size();
  const std::size_t off = buf.size();
  buf.resize(off + sizeof(len) + payload.size());
  std::memcpy(buf.data() + off, &len, sizeof(len));
  if (!payload.empty()) {
    std::memcpy(buf.data() + off + sizeof(len), payload.data(),
                payload.size());
  }
}

/// Calls visit(frame) for each [u64 length][payload] frame that
/// append_frame wrote to `packed`, in order.
template <typename Visit>
void for_each_frame(const std::vector<std::byte>& packed, Visit&& visit) {
  std::size_t off = 0;
  while (off < packed.size()) {
    std::uint64_t len = 0;
    std::memcpy(&len, packed.data() + off, sizeof(len));
    off += sizeof(len);
    visit(std::span<const std::byte>(packed.data() + off,
                                     static_cast<std::size_t>(len)));
    off += static_cast<std::size_t>(len);
  }
}

/// Byte-level combiner (the same std::function type as Comm's private
/// Combiner alias, spelled out so free helpers can name it).
using ByteCombiner = std::function<void(std::vector<std::byte>&,
                                        const std::vector<std::byte>&)>;

/// Unpacks a process-mode allreduce result — the contributions shipped as
/// group-rank-ordered [u64 len][payload] frames — and folds them with
/// `combiner`: the same left comb over ranks 0..P-1 the in-process
/// combine runs, so results are bit-identical across backends.
std::vector<std::byte> fold_packed_allreduce(
    const std::vector<std::byte>& packed, const ByteCombiner& combiner) {
  std::vector<std::byte> acc;
  std::vector<std::byte> next;
  bool first = true;
  for_each_frame(packed, [&](std::span<const std::byte> frame) {
    if (first) {
      acc.assign(frame.begin(), frame.end());
      first = false;
    } else {
      next.assign(frame.begin(), frame.end());
      combiner(acc, next);
    }
  });
  return acc;
}

/// Recursive-doubling cost of one member's share of a collective over
/// `p` ranks whose result holds `result_bytes` payload bytes: an
/// allreduce or a broadcast moves the whole result in each of the log p
/// rounds, every other collective (gathers, barrier, shrink's survivor
/// list) moves it once.
Charge collective_charge(const CostModel& model, analysis::CollOp op,
                         std::uint32_t p, double result_bytes) {
  const double log_p = ceil_log2(p);
  Charge c;
  c.messages = static_cast<std::uint64_t>(log_p);
  if (op == analysis::CollOp::kAllReduce ||
      op == analysis::CollOp::kBroadcast) {
    c.seconds = (model.ts + model.tw * result_bytes) * log_p;
    c.bytes = static_cast<std::uint64_t>(result_bytes * log_p);
  } else {
    c.seconds = model.ts * log_p + model.tw * result_bytes;
    c.bytes = static_cast<std::uint64_t>(result_bytes);
  }
  return c;
}

/// Serializes a resolved call site for the child->parent RPC stream.
void write_site(WireWriter& w, const analysis::CallSite& site) {
  w.str(site.file != nullptr ? site.file : "");
  w.u32(site.line);
  w.str(site.function != nullptr ? site.function : "");
}
}  // namespace

/// Thrown into a rank to unwind it when the fault plan kills it.
/// Deliberately not derived from std::exception so that user-level
/// `catch (std::exception&)` recovery code cannot swallow it; only a
/// blanket `catch (...)` without rethrow would (don't do that in SPMD
/// programs).
struct RankKilled {};

/// One rendezvous of a collective, exchange or shrink: keyed by (group
/// id, sequence number), created by the first arriving member, combined
/// by the first to pick up, destroyed after the last pickup. All access
/// happens under the executor's engine lock (a no-op for the fiber
/// backend), and the combine folds contributions in group-rank order —
/// which is why results are bit-identical regardless of arrival order,
/// schedule, or backend.
struct CollState {
  std::uint32_t expected = 0;
  std::uint32_t arrived = 0;
  std::uint32_t pickups = 0;
  double max_clock = 0.0;
  bool combined = false;
  std::vector<std::vector<std::byte>> contribs;      // by group rank
  std::vector<std::byte> result;
  std::vector<std::size_t> contrib_sizes;
  Charge charge;  // what each member pays (collectives and shrink)
  std::vector<std::vector<InboxEntry>> inboxes;      // by destination rank
  std::shared_ptr<GroupInfo> group;  // for poisoning and diagnostics
  /// Failure-detector bookkeeping (only populated when the detector is
  /// enabled): per-member arrival clocks, the run-once latch for the
  /// detection pass, and the modeled backoff wait every member charges at
  /// pickup (identical for all members — computed before any pickup).
  std::vector<double> arrive_clock;  // by group rank
  bool detector_done = false;
  double detector_wait = 0.0;
  /// Set when a group member died before arriving: the rendezvous can
  /// never complete. Blocked members are woken to observe and raise
  /// RankFailedError; the last observer destroys the state.
  bool poisoned = false;
  std::uint32_t poison_pickups = 0;
  /// Call signature of the first rank to reach this rendezvous: it names
  /// the op and the key, and every later arrival is validated against it
  /// (the collective-matching lint).
  analysis::CollSignature sig;
};

class EngineImpl {
 public:
  explicit EngineImpl(BspEngine::Options options) : opt_(options) {
    SP_ASSERT(opt_.nranks >= 1);
    // Reject malformed fault plans up front (out-of-range ranks, negative
    // straggler factors) — a bad plan silently never firing is the worst
    // way to discover a typo in a chaos schedule.
    opt_.faults.validate(opt_.nranks);
    if (opt_.detector.enabled() && opt_.detector.backoff_seconds < 0.0) {
      throw FaultPlanError(
          "FailureDetectorOptions: backoff_seconds must be >= 0");
    }
    arenas_ = std::vector<BufferArena>(opt_.nranks);
    coalesced_batches_.assign(opt_.nranks, 0);
    exec::ExecOptions eo;
    eo.backend = opt_.backend;
    eo.threads = opt_.threads;
    eo.stack_bytes = opt_.stack_bytes;
    eo.schedule = opt_.schedule;
    eo.schedule_seed = opt_.schedule_seed;
    exec_ = exec::Executor::make(eo);
  }

  exec::Executor& executor() { return *exec_; }

  RunStats run(const std::function<void(Comm&)>& program) {
    WallTimer wall;
    program_ = &program;
    clocks_.assign(opt_.nranks, 0.0);
    traces_.assign(opt_.nranks, RankTrace{});
    totals_.assign(opt_.nranks, CostSnapshot{});
    stages_.assign(opt_.nranks, "main");
    finished_.assign(opt_.nranks, false);
    exceptions_.assign(opt_.nranks, nullptr);
    failed_.assign(opt_.nranks, false);
    failed_order_.clear();
    comm_events_.assign(opt_.nranks, 0);
    stage_events_.assign(opt_.nranks, 0);
    exchange_counts_.assign(opt_.nranks, 0);
    suspicions_.assign(opt_.nranks, 0);
    doomed_.assign(opt_.nranks, false);
    detector_stats_ = DetectorStats{};
    for (BufferArena& a : arenas_) a.reset_stats();  // pooled buffers persist
    std::fill(coalesced_batches_.begin(), coalesced_batches_.end(), 0);
    last_sig_.assign(opt_.nranks, analysis::CollSignature{});
    blocked_on_.assign(opt_.nranks, nullptr);
    issued_.clear();
    touched_groups_.clear();
    states_.clear();
    group_registry_.clear();
    group_ids_used_.clear();

    world_ = std::make_shared<GroupInfo>();
    world_->id = 0;
    world_->members.resize(opt_.nranks);
    for (std::uint32_t r = 0; r < opt_.nranks; ++r) world_->members[r] = r;

    // Multi-process backend: fork ranks 1..P-1 now (before any rank body
    // runs, so every address both sides will ever name is fork-stable),
    // handshake, and seed one world mirror per child. In a child,
    // setup_process_backend_ never returns. A single-rank world needs no
    // children — the normal local path already is the process backend.
    const bool process_ranks =
        opt_.backend == exec::Backend::kProcess && opt_.nranks > 1;
    if (process_ranks) setup_process_backend_();
    // Children must be reaped on *every* exit path out of this frame —
    // a DeadlockError from the stall handler, a rethrown rank exception,
    // a failed-run RankFailedError — or they would outlive the run.
    struct ProcessTeardown {
      EngineImpl* engine;
      ~ProcessTeardown() {
        if (engine != nullptr) engine->teardown_process_backend_();
      }
    } process_teardown{process_ranks ? this : nullptr};

    emit_run_begin();

    // The executor runs the rank bodies — as fibers resumed in Schedule
    // order, or as real threads. When no rank can make progress (a full
    // fiber sweep resumes nobody / every rank thread is parked on a false
    // predicate) it asks this handler what to surface: a rank that threw
    // leaves its peers stuck at a rendezvous, so prefer the recorded
    // original exception (returned via exceptions_ below) over the
    // induced deadlock.
    exec_->set_stall_handler([this]() -> std::exception_ptr {
      for (auto& ex : exceptions_) {
        if (ex) return nullptr;  // the post-run rethrow surfaces it
      }
      return std::make_exception_ptr(DeadlockError(deadlock_report_()));
    });
    exec_->run(opt_.nranks,
               [this](std::uint32_t rank) { rank_main_(rank); });

    if (process_ranks) {
      // Clean completion: tear down deterministically (EOF the channels,
      // reap every child) before the result-integrity checks below.
      process_teardown.engine = nullptr;
      teardown_process_backend_();
    }

    for (auto& ex : exceptions_) {
      if (ex) std::rethrow_exception(ex);
    }
    SP_ASSERT_MSG(states_.empty(), "collective state leaked (pickup mismatch)");

    // Finalize-time signature audit: on a clean run every member of every
    // touched group must have issued the same number of collectives on it.
    // A mismatch here escaped the match-time and deadlock checks, so it
    // indicates an engine-level accounting bug — report it loudly.
    if (failed_order_.empty()) {
      std::string audit = finalize_report_();
      if (!audit.empty()) throw SpmdDivergenceError(audit);
    }

    if (!failed_order_.empty() &&
        failed_order_.size() == static_cast<std::size_t>(opt_.nranks)) {
      // Every rank was killed: nobody is left to have produced a result.
      throw RankFailedError(failed_order_);
    }

    RunStats stats;
    stats.clocks = clocks_;
    stats.traces = traces_;
    stats.wall_seconds = wall.seconds();
    stats.failed_ranks = failed_order_;
    stats.schedule = opt_.schedule;
    stats.backend = opt_.backend;
    stats.threads = exec_->concurrency();
    stats.detector = detector_stats_;
    stats.parked_wall_seconds.resize(opt_.nranks, 0.0);
    for (std::uint32_t r = 0; r < opt_.nranks; ++r) {
      stats.parked_wall_seconds[r] = exec_->parked_wall_seconds(r);
    }
    for (std::uint32_t r = 0; r < opt_.nranks; ++r) {
      const BufferArena::Stats& a = arenas_[r].stats();
      stats.comm_counters.coalesced_batches += coalesced_batches_[r];
      stats.comm_counters.arena_acquires += a.acquires;
      stats.comm_counters.arena_hits += a.hits;
      stats.comm_counters.arena_released += a.released;
      emit_comm_counters(r, a);
    }
    return stats;
  }

  /// Per-rank description of what everyone is stuck in: the diagnostic a
  /// mismatched-collective SPMD bug deserves instead of a bare assert.
  /// Called from the stall handler with the engine lock held (every
  /// unfinished rank is parked, so its stage/signature writes
  /// happened-before the lock acquisition that preceded its park).
  std::string deadlock_report_() const {
    std::string msg =
        "BSP deadlock: mismatched collective calls across ranks; no rank "
        "can make progress. Blocked ranks:";
    for (std::uint32_t r = 0; r < opt_.nranks; ++r) {
      if (finished_[r]) continue;
      const CollState* st = blocked_on_[r];
      msg += "\n  rank " + std::to_string(r) + " (stage '" + stages_[r] + "'): ";
      if (st == nullptr) {
        msg += "not blocked in any rendezvous";
        continue;
      }
      msg += std::string("blocked in ") + analysis::coll_op_name(st->sig.op) +
             " on group " + std::to_string(st->sig.group_id) +
             ", collective seq " + std::to_string(st->sig.seq) + " (" +
             std::to_string(st->arrived) + "/" +
             std::to_string(st->expected) + " ranks arrived)";
      // The blocked rank's own pending signature names the user call site
      // it is stuck at — the half of the divergence each rank can see.
      if (last_sig_[r].site.line != 0) {
        msg += ", issued at " + last_sig_[r].site.str();
      }
    }
    return msg;
  }

  /// Records the arriving rank's signature (for deadlock reports and the
  /// finalize audit) and validates it against the rendezvous's first
  /// arrival. Throws SpmdDivergenceError on the first divergence. Called
  /// before any rendezvous state is mutated so a divergent arrival leaves
  /// the state intact for its correctly-matched peers.
  void check_and_record(CollState& st, const analysis::CollSignature& sig) {
    last_sig_[sig.world_rank] = sig;
    if (sig.op != analysis::CollOp::kShrink) {
      touched_groups_.try_emplace(sig.group_id, st.group);
      ++issued_[sig.group_id][sig.world_rank];
    }
    if (st.arrived == 0) {  // the first arrival
      st.sig = sig;
      return;
    }
    std::string mismatch = analysis::match_signatures(st.sig, sig);
    if (!mismatch.empty()) {
      throw SpmdDivergenceError("SPMD divergence: " + mismatch);
    }
  }

  /// Finalize-time stream audit (see run()). Returns "" when clean.
  std::string finalize_report_() const {
    for (const auto& [gid, counts] : issued_) {
      const GroupInfo& group = *touched_groups_.at(gid);
      std::uint32_t lo_rank = 0, hi_rank = 0;
      std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
      for (std::uint32_t m : group.members) {
        auto it = counts.find(m);
        const std::uint64_t c = it == counts.end() ? 0 : it->second;
        if (c < lo) { lo = c; lo_rank = m; }
        if (c > hi) { hi = c; hi_rank = m; }
      }
      if (lo != hi) {
        return "SPMD divergence at finalize: group " + std::to_string(gid) +
               " members issued unequal collective counts (world rank " +
               std::to_string(lo_rank) + ": " + std::to_string(lo) +
               ", world rank " + std::to_string(hi_rank) + ": " +
               std::to_string(hi) + "); last signature of rank " +
               std::to_string(hi_rank) + ": " +
               last_sig_[hi_rank].describe();
      }
    }
    return {};
  }

  // ---- Called from rank bodies ----
  //
  // Locking discipline: everything touching cross-rank rendezvous state
  // (states_, failed_, group_registry_, issued_, last_sig_) runs under
  // the executor's engine lock — Comm::collective_/exchange/shrink hold
  // it for their whole rendezvous, releasing it only while parked inside
  // block_until. Purely per-rank accounting (clocks_[r], traces_[r],
  // stages_[r], totals_[r], event counters of rank r) is only ever
  // touched by rank r itself and needs no lock; post-mortem readers
  // (deadlock_report_, run()'s stats copy) are ordered after those writes
  // by the park/join that precedes them.

  void add_compute(std::uint32_t world_rank, double units) {
    if (child_ != nullptr) {
      // One-way: FIFO ordering on the data socket lands it in the
      // parent's accounting before this rank's next rendezvous.
      WireWriter w;
      w.u8(static_cast<std::uint8_t>(Verb::kAddCompute));
      w.f64(units);
      child_->data->send(w.buffer());
      return;
    }
    double seconds =
        units * opt_.model.seconds_per_unit * fault_time_scale_(world_rank);
    clocks_[world_rank] += seconds;
    traces_[world_rank][stages_[world_rank]].compute_seconds += seconds;
    totals_[world_rank].compute_seconds += seconds;
  }

  void set_stage(std::uint32_t world_rank, const std::string& stage) {
    stages_[world_rank] = stage;  // keeps stage_of() current child-side too
    stage_events_[world_rank] = 0;
    if (child_ != nullptr) {
      WireWriter w;
      w.u8(static_cast<std::uint8_t>(Verb::kSetStage));
      w.str(stage);
      child_->data->send(w.buffer());
    }
  }

  const std::string& stage_of(std::uint32_t world_rank) const {
    return stages_[world_rank];
  }

  double clock(std::uint32_t world_rank) const {
    if (child_ != nullptr) return child_clock();
    return clocks_[world_rank];
  }

  const CostModel& model() const { return opt_.model; }

  std::shared_ptr<GroupInfo> world() const { return world_; }

  // ---- The rendezvous ----
  //
  // Every collective, exchange superstep and shrink takes the same three
  // steps, under the engine lock: enter_, arrive_ (which parks until the
  // group is complete) and leave_. The ops differ only in what a member
  // deposits, how the contributions combine and what the op costs. The
  // order of the steps is fixed, and runs with faults depend on it:
  // crash trigger, fault ordinal (exchange), dead-member check, signature
  // check, deposit, arrival, park, detector pass, combine, clock join and
  // charges, the op and pickup events, erase, and last the detector's
  // kill (kill_if_doomed, called by the op once its result is formed).

  /// Enter: fires the crash trigger, reads the entry clock, takes an
  /// exchange's fault ordinal (`outgoing` is null for every other op),
  /// refuses a communicator with a dead member (not for shrink, whose
  /// purpose that is) and completes `sig`, whose op, payload shape and
  /// call site the caller set. Returns the entry clock.
  double enter_(Comm& c, analysis::CollSignature& sig,
                std::vector<Comm::Packet>* outgoing) {
    const std::uint32_t w = c.world_rank_;
    on_comm_event(w);
    const double t_begin = clocks_[w];
    if (outgoing != nullptr) {
      // Taken before the dead-member check, so an exchange refused at
      // entry spends its ordinal just as one that joined and was then
      // poisoned does: which exchange a message fault hits cannot depend
      // on when a peer died.
      apply_message_faults(w, *outgoing);
      for (const Comm::Packet& p : *outgoing) {
        sig.payload_bytes += p.data.size();
      }
    }
    if (sig.op != analysis::CollOp::kShrink && any_failed_in(*c.group_)) {
      // ULFM-style failure propagation: touching a communicator with a
      // dead member raises immediately. Consume the sequence number so
      // survivors that were already blocked inside the doomed rendezvous
      // (and spent theirs) stay aligned with us for any later traffic on
      // this comm.
      ++c.seq_;
      throw RankFailedError(failed_order_);
    }
    sig.group_id = c.group_->id;
    sig.seq = c.seq_;
    sig.world_rank = w;
    sig.group_rank = c.group_rank_;
    sig.stage = stages_[w];
    return t_begin;
  }

  /// Arrive: checks `sig` against rendezvous (sig.group_id, sig.seq) of
  /// `expected` members, lets `deposit` place this rank's contribution,
  /// records the arrival and parks until every member has arrived.
  /// Returns the completed state after the detector pass, or nullptr
  /// when a member died first, so that it can never complete.
  template <typename Deposit>
  CollState* arrive_(Comm& c, const analysis::CollSignature& sig,
                     double t_begin, std::uint32_t expected,
                     Deposit&& deposit) {
    const std::uint32_t w = c.world_rank_;
    auto [it, inserted] =
        states_.try_emplace(std::make_pair(sig.group_id, sig.seq));
    CollState& st = it->second;
    if (inserted) {
      st.expected = expected;
      st.contribs.resize(c.group_->members.size());
      st.inboxes.resize(c.group_->members.size());
      st.group = c.group_;
    }
    check_and_record(st, sig);
    if (sig.op != analysis::CollOp::kShrink) ++c.seq_;
    deposit(st);
    st.max_clock = std::max(st.max_clock, clocks_[w]);
    record_arrival(st, c.group_rank_, w);
    ++st.arrived;
    emit_arrive(w, sig.group_id, sig.seq, t_begin,
                analysis::coll_op_name(sig.op));
    // Wake parked peers if this arrival completed the rendezvous (their
    // predicates just flipped).
    if (st.arrived >= st.expected || st.poisoned) exec_->notify();
    if (st.arrived < st.expected && !st.poisoned) {
      blocked_on_[w] = &st;
      const exec::Executor::ReadyFn ready = [&st] {
        return st.poisoned || st.arrived >= st.expected;
      };
      exec_->block_until(w, ready);
      blocked_on_[w] = nullptr;
    }
    if (st.poisoned) {
      // The last arrived rank to observe the poison destroys the state
      // (no further arrivals can happen — entry checks turn later callers
      // away). Deliberately does NOT synchronize the observer's clock to
      // the partial arrivals' max_clock: that max depends on which subset
      // had arrived when the victim died — under real threads, on
      // interleaving — and failure observation must stay deterministic.
      // The observer's own clock is its (deterministic) failure-detection
      // time.
      if (++st.poison_pickups == st.arrived) states_.erase(it);
      return nullptr;
    }
    run_detector(st);
    return &st;
  }

  /// Combine, once per rendezvous, by the first member to pick up: folds
  /// the contributions in group-rank order, never arrival order, so the
  /// fold shape (a left comb over ranks 0..P-1) is fixed and results are
  /// bit-identical on every backend; then prices the op for every member.
  /// A shrink combines as an allgather of the survivors' world ranks.
  void combine_(CollState& st, analysis::CollOp op, std::uint32_t root,
                const ByteCombiner& combiner) {
    if (st.combined) return;
    st.combined = true;
    std::size_t total = 0;
    st.contrib_sizes.resize(st.contribs.size());
    for (std::size_t r = 0; r < st.contribs.size(); ++r) {
      st.contrib_sizes[r] = st.contribs[r].size();
      total += st.contrib_sizes[r];
    }
    // What the cost model charges is the result's payload: a process-mode
    // allreduce result also carries frame headers.
    double result_bytes = static_cast<double>(total);
    switch (op) {
      case analysis::CollOp::kAllReduce:
        result_bytes = static_cast<double>(st.contrib_sizes[0]);
        if (process_mode_) {
          // Proxy ranks carry no combiner — the typed fold lives in each
          // child — so the "combined" result is the contributions packed
          // as [u64 len][payload] frames in group-rank order: every
          // picker with a combiner folds them itself, in the exact order
          // the branch below would have.
          for (const auto& c : st.contribs) append_frame(st.result, c);
        } else {
          SP_ASSERT(combiner != nullptr);
          st.result = std::move(st.contribs[0]);
          for (std::size_t r = 1; r < st.contribs.size(); ++r) {
            combiner(st.result, st.contribs[r]);
          }
        }
        break;
      case analysis::CollOp::kBroadcast:
        result_bytes = static_cast<double>(st.contrib_sizes[root]);
        st.result = std::move(st.contribs[root]);
        break;
      default:  // the others (a barrier's contributions are empty)
        st.result.reserve(total);
        for (const auto& c : st.contribs) {
          st.result.insert(st.result.end(), c.begin(), c.end());
        }
        break;
    }
    st.contribs.clear();
    st.contribs.shrink_to_fit();
    st.charge = collective_charge(opt_.model, op, st.expected, result_bytes);
  }

  /// Leave: joins the clock to the latest arrival, charges the op's cost
  /// and any detector backoff, emits on_comm_op and on_pickup, and
  /// destroys the state at the last pickup. The caller has taken its
  /// result out of `st` already.
  void leave_(Comm& c, CollState& st, const analysis::CollSignature& sig,
              double t_begin, Charge charge) {
    const std::uint32_t w = c.world_rank_;
    clocks_[w] = st.max_clock;
    charge_comm(w, charge);
    charge_detector_wait(w, st);
    emit_comm_op(w, analysis::coll_op_name(sig.op), sig.group_id, sig.seq,
                 t_begin, charge);
    emit_pickup(w, sig.group_id, sig.seq);
    if (++st.pickups == st.expected) {
      states_.erase(std::make_pair(sig.group_id, sig.seq));
    }
  }

  // ---- Failure detector (Options::detector; DESIGN.md §4a) ----

  /// Records the arriving member's virtual clock for the detection pass.
  /// No-op when the detector is off (keeping the fault-free path — and its
  /// fingerprints — untouched). Call with the engine lock held.
  void record_arrival(CollState& st, std::uint32_t group_rank,
                      std::uint32_t world_rank) {
    if (!opt_.detector.enabled() || st.sig.op == analysis::CollOp::kShrink) {
      return;
    }
    if (st.arrive_clock.empty()) {
      st.arrive_clock.assign(st.group->members.size(), 0.0);
    }
    st.arrive_clock[group_rank] = clocks_[world_rank];
  }

  /// Detection pass for one completed rendezvous. Runs once (the first
  /// member through the wait executes it; detector_done latches), before
  /// any member picks up, with the engine lock held. A member whose
  /// arrival lags the earliest arrival by more than the deadline draws a
  /// suspicion: within the retry budget it costs every member a modeled
  /// backoff wait (accumulated in detector_wait, charged at pickup);
  /// beyond the budget the suspect is declared failed and is killed at
  /// its own pickup (kill_if_doomed). Deterministic because arrival
  /// clocks are, and a rank's rendezvous detect in its program order —
  /// thread interleaving cannot reorder one rank's own suspicions.
  /// Shrink rendezvous are exempt: they are the recovery mechanism, and
  /// survivors legitimately arrive there at wildly different clocks.
  void run_detector(CollState& st) {
    if (!opt_.detector.enabled() || st.sig.op == analysis::CollOp::kShrink ||
        st.detector_done) {
      return;
    }
    st.detector_done = true;
    const std::vector<std::uint32_t>& members = st.group->members;
    if (members.size() <= 1 || st.arrive_clock.size() != members.size()) {
      return;
    }
    double first = st.arrive_clock[0];
    for (double c : st.arrive_clock) first = std::min(first, c);
    for (std::uint32_t g = 0; g < members.size(); ++g) {
      const double lag = st.arrive_clock[g] - first;
      if (lag <= opt_.detector.deadline_seconds) continue;
      const std::uint32_t w = members[g];
      if (failed_[w] || doomed_[w]) continue;
      const std::uint32_t n = ++suspicions_[w];
      ++detector_stats_.suspicions;
      const bool escalated = n > opt_.detector.max_retries;
      if (escalated) {
        doomed_[w] = true;
        ++detector_stats_.escalations;
      } else {
        ++detector_stats_.retries;
        st.detector_wait += opt_.detector.backoff_seconds * n;
      }
      // The suspect is parked at this rendezvous, so its arrival clock is
      // its current clock — the time a postmortem should pin the
      // suspicion to.
      emit_detector(DetectorEvent{w, n, lag, escalated}, st.arrive_clock[g]);
    }
  }

  /// Charges one member's share of the rendezvous's retry backoff.
  /// Identical for every member — detector_wait is final before any
  /// pickup happens — and charged like communication time, so a
  /// straggler's own retries cost it proportionally more.
  void charge_detector_wait(std::uint32_t world_rank, const CollState& st) {
    if (st.detector_wait <= 0.0) return;
    const double before = clocks_[world_rank];
    charge_comm(world_rank, Charge{st.detector_wait, 0, 0, false});
    detector_stats_.wait_seconds += clocks_[world_rank] - before;
  }

  /// Unwinds the calling rank (throwing RankKilled) if the detector
  /// declared it failed. Called at the rank's own pickup, after the
  /// rendezvous bookkeeping completed, so no collective state leaks.
  void kill_if_doomed(std::uint32_t world_rank) {
    if (doomed_[world_rank] && !failed_[world_rank]) kill_rank_(world_rank);
  }

  // ---- Fault injection ----

  /// Every collective/exchange entry is one communication event: counts
  /// it (per lifetime, per stage, per trace) and fires any due crash
  /// trigger by unwinding the calling rank with RankKilled.
  void on_comm_event(std::uint32_t world_rank) {
    const std::uint64_t life_idx = comm_events_[world_rank]++;
    const std::uint64_t stage_idx = stage_events_[world_rank]++;
    ++traces_[world_rank][stages_[world_rank]].comm_events;
    if (opt_.faults.crashes.empty() || failed_[world_rank]) return;
    for (const FaultPlan::Crash& c : opt_.faults.crashes) {
      if (c.rank != world_rank) continue;
      if (!c.stage.empty() && c.stage != stages_[world_rank]) continue;
      const std::uint64_t idx = c.stage.empty() ? life_idx : stage_idx;
      if (idx < c.after_events) continue;
      if (c.at_time >= 0.0 && clocks_[world_rank] < c.at_time) continue;
      kill_rank_(world_rank);
    }
  }

  bool any_failed_in(const GroupInfo& group) const {
    if (failed_order_.empty()) return false;
    for (std::uint32_t m : group.members) {
      if (failed_[m]) return true;
    }
    return false;
  }

  /// All failures known engine-wide, in order of death.
  const std::vector<std::uint32_t>& all_failed() const { return failed_order_; }

  std::size_t failed_count() const { return failed_order_.size(); }

  /// Surviving members of a group.
  std::uint32_t live_count(const GroupInfo& group) const {
    return static_cast<std::uint32_t>(
        std::count_if(group.members.begin(), group.members.end(),
                      [this](std::uint32_t m) { return !failed_[m]; }));
  }

  /// Applies the plan's drop/corrupt faults to one exchange call's
  /// outgoing packets (deterministic: keyed by the sender's exchange
  /// ordinal, corruption bytes from the plan seed).
  void apply_message_faults(std::uint32_t world_rank,
                            std::vector<Comm::Packet>& outgoing) {
    const std::uint64_t idx = exchange_counts_[world_rank]++;
    if (opt_.faults.message_faults.empty()) return;
    for (const FaultPlan::MessageFault& f : opt_.faults.message_faults) {
      if (f.rank != world_rank || f.at_exchange != idx) continue;
      if (f.kind == FaultPlan::MessageFault::Kind::kDrop) {
        std::erase_if(outgoing, [&](const Comm::Packet& p) {
          return f.peer == FaultPlan::kAnyPeer || p.peer == f.peer;
        });
      } else {
        for (Comm::Packet& p : outgoing) {
          if (f.peer != FaultPlan::kAnyPeer && p.peer != f.peer) continue;
          std::uint64_t x = hash64(opt_.faults.seed ^
                                   (static_cast<std::uint64_t>(world_rank)
                                    << 32) ^
                                   idx);
          for (std::byte& b : p.data) {
            x = hash64(x);
            b ^= static_cast<std::byte>(x & 0xFF);
          }
        }
      }
    }
  }

  /// Deterministic group id for a split, agreed between members without
  /// extra communication: content-addressed as a hash of (parent group,
  /// split sequence number, color), so every member — and every run,
  /// under any schedule, backend, or thread interleaving — computes the
  /// same id without relying on who asks first. Call with the engine
  /// lock held (the registry is shared).
  std::uint64_t group_id_for_split(std::uint64_t parent_id, std::uint64_t seq,
                                   std::uint32_t color) {
    auto key = std::make_tuple(parent_id, seq, color);
    auto it = group_registry_.find(key);
    if (it != group_registry_.end()) return it->second;
    std::uint64_t id = hash64(hash64(parent_id ^ 0x9E3779B97F4A7C15ull) ^
                              hash64(seq + 0xBF58476D1CE4E5B9ull) ^
                              (color + 0x94D049BB133111EBull));
    if (id == 0) id = 1;  // 0 names the world group
    // A collision would fuse two distinct communicators' rendezvous
    // streams. With 64-bit ids over a handful of groups this is
    // astronomically unlikely — and, because ids are pure functions of
    // the key, it would fire identically in every run (no flakiness).
    const bool id_is_fresh = group_ids_used_.insert(id).second;
    SP_ASSERT_MSG(id_is_fresh, "group id hash collision");
    group_registry_.emplace(key, id);
    return id;
  }

  void charge_comm(std::uint32_t world_rank, const Charge& charge) {
    StageCost& cost = traces_[world_rank][stages_[world_rank]];
    const double seconds = charge.seconds * fault_time_scale_(world_rank);
    cost.comm_seconds += seconds;
    cost.messages += charge.messages;
    cost.bytes_sent += charge.bytes;
    if (charge.is_collective) ++cost.collectives;
    clocks_[world_rank] += seconds;
    CostSnapshot& tot = totals_[world_rank];
    tot.comm_seconds += seconds;
    tot.messages += charge.messages;
    tot.bytes_sent += charge.bytes;
    if (charge.is_collective) ++tot.collectives;
  }

  const CostSnapshot& snapshot(std::uint32_t world_rank) const {
    if (child_ != nullptr) return child_cost_snapshot();
    return totals_[world_rank];
  }

  /// Rank `world_rank`'s buffer arena. Thread-confined: only rank
  /// `world_rank` may call this (senders acquire from their own arena;
  /// a buffer that travelled to another rank is released into the
  /// *receiver's* arena), so no lock is needed on any backend.
  BufferArena& arena(std::uint32_t world_rank) { return arenas_[world_rank]; }

  void add_coalesced_batches(std::uint32_t world_rank, std::uint64_t n) {
    coalesced_batches_[world_rank] += n;
  }

  // ---- Event stream (comm/events.hpp) ----
  //
  // One helper per engine event, each a loop over the subscribers (empty
  // unless an observer is installed). The rendezvous, detector and kill
  // events are emitted with the engine lock held.

  void emit_run_begin() {
    for (EventSink* s : subscribers()) s->on_run_begin(opt_.nranks);
  }

  void emit_arrive(std::uint32_t world_rank, std::uint64_t group,
                   std::uint64_t seq, double clock, const char* op) {
    for (EventSink* s : subscribers()) {
      s->on_arrive(world_rank, group, seq, clock, op, &stages_[world_rank]);
    }
  }

  /// Completed op of `world_rank`, ending at its current clock.
  void emit_comm_op(std::uint32_t world_rank, const char* op,
                    std::uint64_t group, std::uint64_t seq, double t_begin,
                    const Charge& charge) {
    if (subscribers().empty()) return;
    const CommOpEvent ev{.world_rank = world_rank,
                         .op = op,
                         .stage = &stages_[world_rank],
                         .group = group,
                         .seq = seq,
                         .t_begin = t_begin,
                         .t_end = clocks_[world_rank],
                         .messages = charge.messages,
                         .bytes = charge.bytes,
                         .is_collective = charge.is_collective};
    for (EventSink* s : subscribers()) s->on_comm_op(ev);
  }

  void emit_pickup(std::uint32_t world_rank, std::uint64_t group,
                   std::uint64_t seq) {
    for (EventSink* s : subscribers()) s->on_pickup(world_rank, group, seq);
  }

  void emit_detector(const DetectorEvent& ev, double clock) {
    for (EventSink* s : subscribers()) s->on_detector(ev, clock);
  }

  void emit_rank_killed(std::uint32_t world_rank) {
    for (EventSink* s : subscribers()) {
      s->on_rank_killed(world_rank, clocks_[world_rank], &stages_[world_rank]);
    }
  }

  void emit_comm_counters(std::uint32_t world_rank,
                          const BufferArena::Stats& arena) {
    for (EventSink* s : subscribers()) {
      s->on_comm_counters(world_rank, coalesced_batches_[world_rank],
                          arena.acquires, arena.hits);
    }
  }

  // ---- Multi-process backend (DESIGN.md §11) ----
  //
  // Parent side: ranks 1..P-1 are forked child processes. Each gets a
  // proxy fiber (proxy_main_) that replays the child's RPC stream against
  // the real rendezvous code through per-group mirror Comm objects, so
  // every modeled clock, trace, signature check, and fault trigger runs
  // through exactly the fiber-backend code — which is why partitions and
  // fingerprints are bit-identical across backends. Child side: Comm
  // operations branch to the child_* RPC stubs below instead of touching
  // engine state. The invariant that makes blocking I/O safe everywhere:
  // a proxy is awaiting a frame if and only if its child is executing
  // user code between engine calls — strict request/reply alternation on
  // the data socket, with the few one-way verbs riding the same FIFO.

  /// True in a forked child process (this rank's Comm calls go over the
  /// wire).
  bool in_child() const { return child_ != nullptr; }

  /// True in the parent while supervising forked rank processes.
  bool process_mode() const { return process_mode_; }

  // ---- Child-side RPC stubs (Comm methods call these via in_child()) ----

  std::vector<std::byte> child_collective(Comm& comm, analysis::CollOp op,
                                          std::vector<std::byte> payload,
                                          std::uint32_t root,
                                          const Comm::Combiner& combiner,
                                          std::vector<std::size_t>* counts,
                                          std::uint32_t elem_width,
                                          const analysis::CallSite& site) {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kCollective));
    w.u8(static_cast<std::uint8_t>(op));
    w.u64(comm.group_->id);
    w.u32(root);
    w.u32(elem_width);
    write_site(w, site);
    w.blob(payload.data(), payload.size());
    const std::vector<std::byte> reply = child_rpc_(w);
    WireReader r(reply);
    (void)read_verb(r);  // kReplyOk (child_rpc_ rethrew on kReplyError)
    const bool packed = r.u8() != 0;
    std::vector<std::byte> result = r.blob();
    const std::uint64_t n_sizes = r.u64();
    std::vector<std::size_t> sizes;
    sizes.reserve(n_sizes);
    for (std::uint64_t i = 0; i < n_sizes; ++i) {
      sizes.push_back(static_cast<std::size_t>(r.u64()));
    }
    r.expect_done();
    if (counts != nullptr) *counts = std::move(sizes);
    // Allreduce results arrive as packed per-rank contributions (the
    // proxy has no combiner — the typed fold lives here, in the child).
    if (packed && combiner) result = fold_packed_allreduce(result, combiner);
    return result;
  }

  std::vector<Comm::Packet> child_exchange(Comm& comm,
                                           std::vector<Comm::Packet> outgoing,
                                           const analysis::CallSite& site) {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kExchange));
    w.u64(comm.group_->id);
    write_site(w, site);
    w.u64(outgoing.size());
    for (const Comm::Packet& p : outgoing) {
      w.u32(p.peer);
      w.blob(p.data.data(), p.data.size());
    }
    // Serialized: the buffers can go back to this rank's (child-local)
    // arena for the next superstep.
    BufferArena& arena = arenas_[comm.world_rank_];
    for (Comm::Packet& p : outgoing) arena.release(std::move(p.data));
    const std::vector<std::byte> reply = child_rpc_(w);
    WireReader r(reply);
    (void)read_verb(r);
    const std::uint64_t n = r.u64();
    std::vector<InboxEntry> entries;
    entries.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      InboxEntry e;
      e.src = r.u32();
      e.packed = r.u8() != 0;
      e.data = r.blob();
      entries.push_back(std::move(e));
    }
    r.expect_done();
    // The engine's coalesced packing travelled the wire verbatim; expand
    // it locally, exactly as the in-process path would.
    return comm.unpack_entries_(std::move(entries));
  }

  Comm child_split(Comm& comm, std::uint32_t color, std::uint32_t key,
                   const analysis::CallSite& site) {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kSplit));
    w.u64(comm.group_->id);
    w.u32(color);
    w.u32(key);
    write_site(w, site);
    return read_group_reply_(comm, child_rpc_(w));
  }

  Comm child_shrink(Comm& comm, const analysis::CallSite& site) {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kShrink));
    w.u64(comm.group_->id);
    write_site(w, site);
    return read_group_reply_(comm, child_rpc_(w));
  }

  double child_clock() const {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kClockQuery));
    const std::vector<std::byte> reply = child_rpc_(w);
    WireReader r(reply);
    (void)read_verb(r);
    const double value = r.f64();
    r.expect_done();
    return value;
  }

  const CostSnapshot& child_cost_snapshot() const {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kSnapshotQuery));
    const std::vector<std::byte> reply = child_rpc_(w);
    WireReader r(reply);
    (void)read_verb(r);
    child_snapshot_.compute_seconds = r.f64();
    child_snapshot_.comm_seconds = r.f64();
    child_snapshot_.messages = r.u64();
    child_snapshot_.bytes_sent = r.u64();
    child_snapshot_.collectives = r.u64();
    r.expect_done();
    return child_snapshot_;
  }

  // Host-memory seam, child side (Comm::host_* route here). Fork keeps
  // every pre-fork address — data and code alike — valid in both
  // processes, so raw virtual addresses and function pointers are the
  // wire representation.

  void child_host_store(void* addr, const void* src, std::size_t len) const {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kHostStore));
    // sp-lint-allow(pointer-order): fork-stable host address on the wire
    w.u64(reinterpret_cast<std::uintptr_t>(addr));
    w.blob(src, len);
    child_->data->send(w.buffer());
  }

  void child_host_load(const void* addr, void* dst, std::size_t len) const {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kHostLoad));
    // sp-lint-allow(pointer-order): fork-stable host address on the wire
    w.u64(reinterpret_cast<std::uintptr_t>(addr));
    w.u64(len);
    const std::vector<std::byte> reply = child_rpc_(w);
    WireReader r(reply);
    (void)read_verb(r);
    const std::vector<std::byte> bytes = r.blob();
    r.expect_done();
    SP_ASSERT(bytes.size() == len);
    if (len != 0) std::memcpy(dst, bytes.data(), len);
  }

  void child_host_call_store(Comm::HostStoreThunk fn, void* ctx,
                             const std::byte* data, std::size_t len) const {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kHostCallStore));
    // sp-lint-allow(pointer-order): fork-stable code/context addresses
    w.u64(reinterpret_cast<std::uintptr_t>(fn));
    // sp-lint-allow(pointer-order): fork-stable code/context addresses
    w.u64(reinterpret_cast<std::uintptr_t>(ctx));
    w.blob(data, len);
    child_->data->send(w.buffer());
  }

  std::vector<std::byte> child_host_call_load(Comm::HostLoadThunk fn,
                                              const void* ctx) const {
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kHostCallLoad));
    // sp-lint-allow(pointer-order): fork-stable code/context addresses
    w.u64(reinterpret_cast<std::uintptr_t>(fn));
    // sp-lint-allow(pointer-order): fork-stable code/context addresses
    w.u64(reinterpret_cast<std::uintptr_t>(ctx));
    const std::vector<std::byte> reply = child_rpc_(w);
    WireReader r(reply);
    (void)read_verb(r);
    std::vector<std::byte> out = r.blob();
    r.expect_done();
    return out;
  }

 private:
  /// Straggler model: the product of all active slowdown factors for a
  /// rank, applied to every virtual-clock charge.
  double fault_time_scale_(std::uint32_t world_rank) const {
    if (opt_.faults.stragglers.empty()) return 1.0;
    double f = 1.0;
    for (const FaultPlan::Straggler& s : opt_.faults.stragglers) {
      if (s.rank == world_rank && clocks_[world_rank] >= s.from_time) {
        f *= s.factor;
      }
    }
    return f;
  }

  /// Fail-stop: marks the rank dead, poisons every rendezvous that can no
  /// longer complete, wakes parked peers to observe, and unwinds the
  /// caller. Requires the engine lock (all callers hold it).
  [[noreturn]] void kill_rank_(std::uint32_t r) {
    failed_[r] = true;
    failed_order_.push_back(r);
    // Under the engine lock, so the victim's history is ordered before
    // every rendezvous that completes after this point.
    emit_rank_killed(r);
    for (auto& [key, st] : states_) {
      // A pending rendezvous expecting the dead rank can never fill up.
      // (The dead rank itself is never mid-rendezvous: crashes fire at
      // event entry, before it arrives anywhere.) Completed states keep
      // serving pickups.
      if (!st.poisoned && st.arrived < st.expected &&
          contains_rank(st.group->members, r)) {
        st.poisoned = true;
      }
    }
    exec_->notify();
    throw RankKilled{};
  }

  // ---- Parent-side supervisor machinery ----

  /// Handshake nonce: pid + per-engine run counter, hashed. Unique enough
  /// to catch a stale or foreign peer, with no wall clock or RNG involved.
  std::uint64_t next_nonce_() {
    return hash64((static_cast<std::uint64_t>(::getpid()) << 20) ^
                  ++run_counter_);
  }

  void setup_process_backend_() {
    process_mode_ = true;
    proxy_awaiting_.assign(opt_.nranks, 0);
    mirrors_.assign(opt_.nranks, {});
    interned_.clear();
    host_ = std::make_unique<ProcessHost>(opt_.nranks, next_nonce_());
    for (std::uint32_t r = 1; r < opt_.nranks; ++r) {
      std::unique_ptr<ChildEndpoint> ep = host_->spawn(r);
      if (ep != nullptr) child_run_(std::move(ep));  // child: never returns
    }
    for (std::uint32_t r = 1; r < opt_.nranks; ++r) host_->handshake(r);
    for (std::uint32_t r = 1; r < opt_.nranks; ++r) {
      // The proxy replays rank r through mirror Comms — one per group the
      // child opens — seeded with the world communicator.
      mirrors_[r].emplace(world_->id, Comm(this, world_, r, r));
    }
    exec_->set_idle_handler([this] { return pump_children_(); });
  }

  void teardown_process_backend_() {
    if (host_ != nullptr) host_->shutdown();
    host_.reset();
    mirrors_.clear();
    proxy_awaiting_.clear();
    exec_->set_idle_handler(nullptr);
    process_mode_ = false;
  }

  /// Fiber-sweep idle hook (parent): when no fiber is runnable, block in
  /// poll(2) on the channels of every rank whose proxy is parked waiting
  /// for child traffic. Returns true if any frame or EOF arrived (some
  /// proxy predicate may now pass). Returns false when no proxy is
  /// waiting on the wire — every unfinished rank is parked in a
  /// rendezvous, which is a genuine stall, and the deadlock handler takes
  /// over with the same diagnostics as the fiber backend.
  bool pump_children_() {
    if (host_ == nullptr) return false;
    std::vector<std::uint32_t> awaiting;
    for (std::uint32_t r = 1; r < opt_.nranks; ++r) {
      if (proxy_awaiting_[r] != 0) awaiting.push_back(r);
    }
    if (awaiting.empty()) return false;
    return host_->poll_ranks(awaiting);
  }

  /// Whole life of a forked child: handshake, run the rank body with Comm
  /// calls routed over the wire, report Exit, and _exit. Never returns.
  [[noreturn]] void child_run_(std::unique_ptr<ChildEndpoint> ep) {
    const std::uint32_t rank = ep->rank;
    const std::uint64_t nonce = host_->nonce();
    host_.reset();  // the parent's supervisor state means nothing here
    child_ = std::move(ep);
    try {
      ProcessHost::child_handshake(*child_, opt_.nranks, nonce);
      try {
        Comm comm(this, world_, rank, rank);
        (*program_)(comm);
        WireWriter w;
        w.u8(static_cast<std::uint8_t>(Verb::kExitOk));
        child_->ctrl->send(w.buffer());
      } catch (...) {
        // Rank body threw (including a typed RankFailedError the program
        // chose not to recover from): ship it; the proxy records it in
        // this rank's exception slot exactly as the fiber backend would.
        WireWriter w;
        w.u8(static_cast<std::uint8_t>(Verb::kExitError));
        write_exception(w, encode_exception(std::current_exception()));
        child_->ctrl->send(w.buffer());
      }
    } catch (...) {
      // Wire failure talking to the parent (teardown EOF after a peer's
      // death, handshake mismatch): there is nobody left to report to.
    }
    // _exit, not exit: the child shares the parent's atexit/coverage
    // state and must not run any of it.
    ::_exit(0);
  }

  /// Child side of one request/reply RPC. Rethrows a kReplyError payload
  /// as its typed exception; otherwise returns the raw reply frame for
  /// the caller to decode (the caller re-reads the leading verb).
  std::vector<std::byte> child_rpc_(const WireWriter& w) const {
    child_->data->send(w.buffer());
    std::vector<std::byte> reply = child_->data->recv();
    WireReader r(reply);
    if (read_verb(r) == Verb::kReplyError) {
      rethrow_wire_exception(read_exception(r));
    }
    return reply;
  }

  /// Decodes a split/shrink reply (group id, my index, members) into a
  /// child-local communicator.
  Comm read_group_reply_(const Comm& comm,
                         const std::vector<std::byte>& reply) {
    WireReader r(reply);
    (void)read_verb(r);
    auto group = std::make_shared<GroupInfo>();
    group->id = r.u64();
    const std::uint32_t my_index = r.u32();
    const std::uint64_t n = r.u64();
    group->members.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) group->members.push_back(r.u32());
    r.expect_done();
    return Comm(this, std::move(group), my_index, comm.world_rank_);
  }

  /// Parent-side proxy body for a forked rank: replays the child's RPC
  /// stream against the real engine until the child reports Exit or dies.
  void proxy_main_(std::uint32_t rank) {
    for (;;) {
      std::vector<std::byte> frame = next_child_frame_(rank);
      WireReader r(frame);
      const Verb verb = read_verb(r);
      if (verb == Verb::kExitOk) {
        r.expect_done();
        return;
      }
      if (verb == Verb::kExitError) {
        exceptions_[rank] = decode_exception(read_exception(r));
        return;
      }
      dispatch_(rank, verb, r);
    }
  }

  /// Blocks the proxy fiber until its child sends a frame (data channel
  /// preferred — the child sends Exit only after its last RPC round trip,
  /// so no data frame is ever pending behind an Exit) or dies. EOF with
  /// no frame is a real crash (SIGKILL, abort): it lands in kill_rank_ —
  /// the modeled fail-stop path — so peers observe an ordinary
  /// RankFailedError and shrink-and-recover works unchanged.
  std::vector<std::byte> next_child_frame_(std::uint32_t rank) {
    ProcessHost::Child& c = host_->child(rank);
    FrameChannel& data = *c.data;
    FrameChannel& ctrl = *c.ctrl;
    exec::ExecLock guard(*exec_);
    const exec::Executor::ReadyFn ready = [&data, &ctrl] {
      return data.has_frame() || ctrl.has_frame() || data.eof() || ctrl.eof();
    };
    if (!ready()) {
      proxy_awaiting_[rank] = 1;
      exec_->block_until(rank, ready);
      proxy_awaiting_[rank] = 0;
    }
    if (data.has_frame()) return data.take_frame();
    if (ctrl.has_frame()) return ctrl.take_frame();
    host_->close_child(rank);
    kill_rank_(rank);
  }

  /// Sends a reply frame to `rank`'s child, mapping a dead reply path
  /// (the child was killed while its operation was in flight) onto the
  /// modeled failure machinery instead of failing the whole run.
  void send_to_child_(std::uint32_t rank,
                      const std::vector<std::byte>& frame) {
    try {
      host_->child(rank).data->send(frame);
    } catch (const WireError&) {
      exec::ExecLock guard(*exec_);
      host_->close_child(rank);
      if (!failed_[rank]) kill_rank_(rank);
      throw RankKilled{};
    }
  }

  Comm& mirror_(std::uint32_t rank, std::uint64_t gid) {
    auto& m = mirrors_[rank];
    auto it = m.find(gid);
    if (it == m.end()) {
      throw WireError(WireError::Kind::kDecode,
                      "child rank " + std::to_string(rank) +
                          " referenced unknown group " + std::to_string(gid));
    }
    return it->second;
  }

  /// Decodes a child call site, interning the strings (CallSite holds
  /// const char*; std::set node addresses are stable for the engine's
  /// lifetime).
  analysis::CallSite read_site_(WireReader& r) {
    std::string file = r.str();
    const std::uint32_t line = r.u32();
    std::string function = r.str();
    analysis::CallSite site;
    site.file = interned_.insert(std::move(file)).first->c_str();
    site.line = line;
    site.function = interned_.insert(std::move(function)).first->c_str();
    return site;
  }

  /// Executes one RPC from rank `rank`'s child against the mirror state
  /// and replies. Error discipline: a rank-level exception out of the
  /// replay (divergence, usage error, RankFailedError at a dead
  /// communicator) is encoded as kReplyError — the child rethrows it
  /// typed and its program reacts exactly as a fiber-backend rank would.
  /// RankKilled (the mirror rank died: fault plan, detector, dead reply
  /// path) EOFs the child and unwinds the proxy like any killed rank.
  /// Run teardown (RunAborted) and protocol corruption (WireError)
  /// propagate — they are run-level, not rank-level.
  void dispatch_(std::uint32_t rank, Verb verb, WireReader& r) {
    switch (verb) {
      case Verb::kAddCompute: {
        const double units = r.f64();
        r.expect_done();
        add_compute(rank, units);
        return;
      }
      case Verb::kSetStage: {
        const std::string stage = r.str();
        r.expect_done();
        set_stage(rank, stage);
        return;
      }
      case Verb::kHostStore: {
        auto* addr =
            reinterpret_cast<void*>(static_cast<std::uintptr_t>(r.u64()));
        const std::vector<std::byte> data = r.blob();
        r.expect_done();
        if (!data.empty()) std::memcpy(addr, data.data(), data.size());
        return;
      }
      case Verb::kHostCallStore: {
        auto fn = reinterpret_cast<Comm::HostStoreThunk>(
            static_cast<std::uintptr_t>(r.u64()));
        auto* ctx =
            reinterpret_cast<void*>(static_cast<std::uintptr_t>(r.u64()));
        const std::vector<std::byte> data = r.blob();
        r.expect_done();
        fn(ctx, data.data(), data.size());
        return;
      }
      default:
        break;
    }
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(Verb::kReplyOk));
    try {
      switch (verb) {
        case Verb::kClockQuery: {
          r.expect_done();
          w.f64(clocks_[rank]);
          break;
        }
        case Verb::kSnapshotQuery: {
          r.expect_done();
          const CostSnapshot& s = totals_[rank];
          w.f64(s.compute_seconds);
          w.f64(s.comm_seconds);
          w.u64(s.messages);
          w.u64(s.bytes_sent);
          w.u64(s.collectives);
          break;
        }
        case Verb::kHostLoad: {
          const auto* addr = reinterpret_cast<const void*>(
              static_cast<std::uintptr_t>(r.u64()));
          const std::uint64_t len = r.u64();
          r.expect_done();
          w.blob(addr, static_cast<std::size_t>(len));
          break;
        }
        case Verb::kHostCallLoad: {
          auto fn = reinterpret_cast<Comm::HostLoadThunk>(
              static_cast<std::uintptr_t>(r.u64()));
          const auto* ctx = reinterpret_cast<const void*>(
              static_cast<std::uintptr_t>(r.u64()));
          r.expect_done();
          std::vector<std::byte> out;
          fn(ctx, out);
          w.blob(out.data(), out.size());
          break;
        }
        case Verb::kCollective: {
          const auto op = static_cast<analysis::CollOp>(r.u8());
          const std::uint64_t gid = r.u64();
          const std::uint32_t root = r.u32();
          const std::uint32_t elem_width = r.u32();
          const analysis::CallSite site = read_site_(r);
          std::vector<std::byte> payload = r.blob();
          r.expect_done();
          std::vector<std::size_t> sizes;
          std::vector<std::byte> result = mirror_(rank, gid).collective_(
              op, std::move(payload), root, nullptr, &sizes, elem_width,
              site);
          w.u8(op == analysis::CollOp::kAllReduce ? 1 : 0);
          w.blob(result.data(), result.size());
          w.u64(sizes.size());
          for (std::size_t s : sizes) w.u64(s);
          break;
        }
        case Verb::kExchange: {
          const std::uint64_t gid = r.u64();
          const analysis::CallSite site = read_site_(r);
          const std::uint64_t n = r.u64();
          std::vector<Comm::Packet> outgoing;
          outgoing.reserve(n);
          for (std::uint64_t i = 0; i < n; ++i) {
            Comm::Packet p;
            p.peer = r.u32();
            p.data = r.blob();
            outgoing.push_back(std::move(p));
          }
          r.expect_done();
          Comm& m = mirror_(rank, gid);
          std::vector<InboxEntry> entries =
              m.exchange_core_(std::move(outgoing), site);
          {
            exec::ExecLock guard(*exec_);
            kill_if_doomed(rank);
          }
          // The coalesced packed entries ARE the wire payload — shipped
          // verbatim; the child unpacks with the same code the
          // in-process path uses.
          w.u64(entries.size());
          for (const InboxEntry& e : entries) {
            w.u32(e.src);
            w.u8(e.packed ? 1 : 0);
            w.blob(e.data.data(), e.data.size());
          }
          break;
        }
        case Verb::kSplit:
        case Verb::kShrink: {
          const std::uint64_t gid = r.u64();
          std::uint32_t color = 0, key = 0;
          if (verb == Verb::kSplit) {
            color = r.u32();
            key = r.u32();
          }
          const analysis::CallSite site = read_site_(r);
          r.expect_done();
          Comm& mirror = mirror_(rank, gid);
          Comm sub = verb == Verb::kSplit ? mirror.split_(color, key, site)
                                          : mirror.shrink_(site);
          w.u64(sub.group_->id);
          w.u32(sub.group_rank_);
          w.u64(sub.group_->members.size());
          for (std::uint32_t m : sub.group_->members) w.u32(m);
          mirrors_[rank].insert_or_assign(sub.group_->id, std::move(sub));
          break;
        }
        default:
          throw WireError(WireError::Kind::kDecode,
                          std::string("unexpected request verb ") +
                              verb_name(verb));
      }
    } catch (const RankKilled&) {
      host_->close_child(rank);
      throw;
    } catch (const exec::RunAborted&) {
      throw;
    } catch (const WireError&) {
      throw;
    } catch (...) {
      WireWriter err;
      err.u8(static_cast<std::uint8_t>(Verb::kReplyError));
      write_exception(err, encode_exception(std::current_exception()));
      send_to_child_(rank, err.buffer());
      return;
    }
    send_to_child_(rank, w.buffer());
  }

  void rank_main_(std::uint32_t rank) {
    try {
      if (process_mode_ && rank > 0) {
        proxy_main_(rank);
      } else {
        Comm comm(this, world_, rank, rank);
        (*program_)(comm);
      }
    } catch (const RankKilled&) {
      // Fault-plan crash: the death is already recorded; the rank just
      // retires without surfacing an exception.
    } catch (const exec::RunAborted&) {
      // The run is being torn down (a peer stalled or threw); retire
      // quietly — whatever caused the abort is surfaced elsewhere.
    } catch (...) {
      exceptions_[rank] = std::current_exception();
    }
    exec::ExecLock guard(*exec_);
    finished_[rank] = true;
  }

  BspEngine::Options opt_;
  std::unique_ptr<exec::Executor> exec_;
  const std::function<void(Comm&)>* program_ = nullptr;

  std::vector<double> clocks_;
  std::vector<RankTrace> traces_;
  std::vector<CostSnapshot> totals_;  // cumulative per world rank
  std::vector<std::string> stages_;
  std::vector<bool> finished_;
  std::vector<std::exception_ptr> exceptions_;
  std::vector<bool> failed_;                  // by world rank
  std::vector<std::uint32_t> failed_order_;   // world ranks, death order
  std::vector<std::uint64_t> comm_events_;    // lifetime comm events per rank
  std::vector<std::uint64_t> stage_events_;   // comm events since set_stage
  std::vector<std::uint64_t> exchange_counts_;  // exchange calls per rank
  std::vector<std::uint32_t> suspicions_;  // detector suspicions, by world rank
  std::vector<bool> doomed_;  // detector-declared failed; killed at pickup
  DetectorStats detector_stats_;
  std::vector<BufferArena> arenas_;  // by world rank; see arena() for ownership
  std::vector<std::uint64_t> coalesced_batches_;  // packed messages per rank
  /// Most recent call signature per world rank (deadlock diagnostics and
  /// the finalize audit).
  std::vector<analysis::CollSignature> last_sig_;
  /// Collectives issued per (group id, world rank), and the groups seen.
  std::map<std::uint64_t, std::map<std::uint32_t, std::uint64_t>> issued_;
  std::map<std::uint64_t, std::shared_ptr<GroupInfo>> touched_groups_;
  std::vector<CollState*> blocked_on_;  // by world rank, while parked

  std::map<std::pair<std::uint64_t, std::uint64_t>, CollState> states_;
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>,
           std::uint64_t>
      group_registry_;
  std::set<std::uint64_t> group_ids_used_;
  std::shared_ptr<GroupInfo> world_;

  /// True while run() supervises forked rank processes (parent side; the
  /// children inherit it as true, but in_child() dominates there).
  bool process_mode_ = false;
  std::unique_ptr<ProcessHost> host_;         // parent-side supervisor
  std::vector<std::uint8_t> proxy_awaiting_;  // proxy parked on child traffic
  /// Per remote rank: group id -> mirror Comm the proxy replays through.
  std::vector<std::map<std::uint64_t, Comm>> mirrors_;
  std::set<std::string> interned_;  // stable child call-site strings
  std::uint64_t run_counter_ = 0;   // handshake nonce derivation
  std::unique_ptr<ChildEndpoint> child_;  // child side; null in the parent
  mutable CostSnapshot child_snapshot_;   // reply buffer, cost_snapshot RPC
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Event subscribers (see events.hpp). Changed by the host between runs and
// only read while one runs, so a plain global is safe on every backend.
// ---------------------------------------------------------------------------

namespace {
std::vector<EventSink*> g_subscribers;
}  // namespace

void subscribe(EventSink* sink) {
  if (sink != nullptr) g_subscribers.push_back(sink);
}

void unsubscribe(EventSink* sink) { std::erase(g_subscribers, sink); }

const std::vector<EventSink*>& subscribers() { return g_subscribers; }

// ---------------------------------------------------------------------------
// Comm implementation
// ---------------------------------------------------------------------------

Comm::Comm(detail::EngineImpl* engine, std::shared_ptr<detail::GroupInfo> group,
           std::uint32_t group_rank, std::uint32_t world_rank)
    : engine_(engine),
      group_(std::move(group)),
      group_rank_(group_rank),
      world_rank_(world_rank) {}

std::uint32_t Comm::nranks() const {
  return static_cast<std::uint32_t>(group_->members.size());
}

std::uint32_t Comm::world_size() const {
  return static_cast<std::uint32_t>(engine_->world()->members.size());
}

void Comm::set_stage(const std::string& stage) {
  engine_->set_stage(world_rank_, stage);
}

const std::string& Comm::stage() const {
  return engine_->stage_of(world_rank_);
}

void Comm::add_compute(double units) {
  engine_->add_compute(world_rank_, units);
}

double Comm::clock() const { return engine_->clock(world_rank_); }

CostSnapshot Comm::cost_snapshot() const {
  return engine_->snapshot(world_rank_);
}

void Comm::barrier(std::source_location loc) {
  collective_(analysis::CollOp::kBarrier, {}, 0, nullptr, nullptr, 0,
              analysis::CallSite::from(loc));
}

std::vector<std::byte> Comm::collective_(analysis::CollOp op,
                                         std::vector<std::byte> payload,
                                         std::uint32_t root, Combiner combiner,
                                         std::vector<std::size_t>* counts,
                                         std::uint32_t elem_width,
                                         const analysis::CallSite& site) {
  if (engine_->in_child()) {
    return engine_->child_collective(*this, op, std::move(payload), root,
                                     combiner, counts, elem_width, site);
  }
  // The engine lock spans the whole rendezvous (released only while
  // parked in arrive_); RAII so every throw path unlocks.
  exec::ExecLock guard(engine_->executor());
  analysis::CollSignature sig;
  sig.op = op;
  sig.root = root;
  sig.elem_width = elem_width;
  sig.elem_count = elem_width != 0 ? payload.size() / elem_width : 0;
  sig.payload_bytes = payload.size();
  sig.site = site;
  const double t_begin = engine_->enter_(*this, sig, nullptr);
  detail::CollState* st = engine_->arrive_(
      *this, sig, t_begin, nranks(), [&](detail::CollState& s) {
        s.contribs[group_rank_] = std::move(payload);
      });
  if (st == nullptr) throw RankFailedError(engine_->all_failed());
  engine_->combine_(*st, op, root, combiner);

  std::vector<std::byte> my_result;
  if (op == analysis::CollOp::kGather) {
    if (group_rank_ == root) my_result = st->result;
  } else if (op != analysis::CollOp::kBarrier) {
    my_result = st->result;
  }
  if (counts) *counts = st->contrib_sizes;
  if (engine_->process_mode() && op == analysis::CollOp::kAllReduce &&
      combiner != nullptr) {
    // The in-parent rank folds its own copy of the packed contributions
    // (proxies ship theirs to the child instead; see combine_).
    my_result = detail::fold_packed_allreduce(my_result, combiner);
  }
  engine_->leave_(*this, *st, sig, t_begin, st->charge);
  // Detector escalation fires here — after the rendezvous bookkeeping is
  // complete (the state cannot leak), from the doomed rank's own context
  // (only a rank's own fiber/thread may unwind it).
  engine_->kill_if_doomed(world_rank_);
  return my_result;
}

std::vector<std::byte> Comm::pack_bytes_(const void* src, std::size_t bytes) {
  std::vector<std::byte> buf = engine_->arena(world_rank_).acquire(bytes);
  if (bytes != 0) std::memcpy(buf.data(), src, bytes);
  return buf;
}

void Comm::recycle_(std::vector<std::byte>&& data) {
  engine_->arena(world_rank_).release(std::move(data));
}

std::vector<Comm::Packet> Comm::exchange(std::vector<Packet> outgoing,
                                         std::source_location loc) {
  return exchange_(std::move(outgoing), analysis::CallSite::from(loc));
}

std::vector<Comm::Packet> Comm::exchange_(std::vector<Packet> outgoing,
                                          const analysis::CallSite& site) {
  // Validate peers before touching any engine state: a bad destination
  // must not corrupt the rendezvous it would have joined. Child ranks
  // validate locally too, so the error surfaces in the caller's frame
  // instead of crossing the wire.
  for (const Packet& p : outgoing) {
    if (p.peer >= group_->members.size()) {
      throw CommUsageError(
          "exchange: rank " + std::to_string(group_rank_) + " (world rank " +
          std::to_string(world_rank_) + ", stage '" +
          engine_->stage_of(world_rank_) + "') addressed a packet to peer " +
          std::to_string(p.peer) + " in a communicator of " +
          std::to_string(nranks()) + " rank(s)");
    }
  }
  if (engine_->in_child()) {
    return engine_->child_exchange(*this, std::move(outgoing), site);
  }
  auto inbox = unpack_entries_(exchange_core_(std::move(outgoing), site));
  // Detector escalation unwinds the doomed rank after its inbox is fully
  // formed (proxy dispatch does the same before serializing the reply).
  exec::ExecLock guard(engine_->executor());
  engine_->kill_if_doomed(world_rank_);
  return inbox;
}

std::vector<detail::InboxEntry> Comm::exchange_core_(
    std::vector<Packet> outgoing, const analysis::CallSite& site) {
  exec::ExecLock guard(engine_->executor());
  analysis::CollSignature sig;
  sig.op = analysis::CollOp::kExchange;
  sig.site = site;
  const double t_begin = engine_->enter_(*this, sig, &outgoing);

  // Deliver into the per-destination mailboxes, batching everything this
  // rank sends to one destination into a single packed message: msgs_out
  // counts *distinct destinations* — one t_s startup per peer (DESIGN.md
  // §3a). The whole loop runs under the engine lock, so this rank's
  // entries are consecutive in each mailbox (box.back() is ours iff we
  // already delivered to that destination this superstep).
  std::uint64_t msgs_out = 0;
  detail::CollState* st = engine_->arrive_(
      *this, sig, t_begin, nranks(), [&](detail::CollState& s) {
        BufferArena& arena = engine_->arena(world_rank_);
        std::uint64_t batches = 0;
        for (auto& p : outgoing) {
          auto& box = s.inboxes[p.peer];
          if (box.empty() || box.back().src != group_rank_) {
            ++msgs_out;  // first packet to this destination: moves as-is
            box.push_back(
                detail::InboxEntry{group_rank_, false, std::move(p.data)});
            continue;
          }
          detail::InboxEntry& e = box.back();
          if (!e.packed) {
            std::vector<std::byte> first = std::move(e.data);
            e.data = arena.acquire(0);
            detail::append_frame(e.data, first);
            arena.release(std::move(first));
            e.packed = true;
            ++batches;
          }
          detail::append_frame(e.data, p.data);
          arena.release(std::move(p.data));
        }
        if (batches != 0) engine_->add_coalesced_batches(world_rank_, batches);
      });
  if (st == nullptr) throw RankFailedError(engine_->all_failed());

  std::vector<detail::InboxEntry> entries = std::move(st->inboxes[group_rank_]);
  // Stable sort by source: mailbox contents arrive in (arbitrary) peer
  // arrival order, but the sort keys them by source rank while
  // preserving each source's send order — the received sequence is a
  // pure function of what was sent, not of scheduling. (A packed entry
  // already holds one source's packets in send order.)
  std::stable_sort(entries.begin(), entries.end(),
                   [](const detail::InboxEntry& a, const detail::InboxEntry& b) {
                     return a.src < b.src;
                   });

  // msgs_in mirrors msgs_out's accounting: received *messages*, i.e.
  // mailbox entries — one per sending peer.
  // bytes_in counts payload bytes only (the frame headers of a packed
  // batch are wire overhead, invisible to the cost model); it is computed
  // by walking the entries so the actual unpack can happen outside the
  // engine lock — for a remote rank, in the child's own address space.
  // bytes_out is the signature's payload: every packet sent.
  const std::uint64_t msgs_in = entries.size();
  std::uint64_t bytes_in = 0;
  for (const auto& e : entries) {
    if (!e.packed) {
      bytes_in += e.data.size();
      continue;
    }
    detail::for_each_frame(e.data, [&](std::span<const std::byte> frame) {
      bytes_in += frame.size();
    });
  }
  const std::uint64_t bytes_out = sig.payload_bytes;
  const CostModel& model = engine_->model();
  const double seconds =
      model.ts * static_cast<double>(std::max<std::uint64_t>(
                     {msgs_out, msgs_in, 1})) +
      model.tw * static_cast<double>(std::max(bytes_out, bytes_in));
  engine_->leave_(*this, *st, sig, t_begin,
                  detail::Charge{seconds, msgs_out, bytes_out, false});
  return entries;
}

std::vector<Comm::Packet> Comm::unpack_entries_(
    std::vector<detail::InboxEntry> entries) {
  std::vector<Packet> inbox;
  inbox.reserve(entries.size());
  for (auto& e : entries) {
    if (!e.packed) {
      inbox.push_back(Packet{e.src, std::move(e.data)});
      continue;
    }
    // Unpack one batch into per-packet buffers from this rank's arena.
    BufferArena& arena = engine_->arena(world_rank_);
    detail::for_each_frame(e.data, [&](std::span<const std::byte> frame) {
      std::vector<std::byte> buf = arena.acquire(frame.size());
      if (!frame.empty()) std::memcpy(buf.data(), frame.data(), frame.size());
      inbox.push_back(Packet{e.src, std::move(buf)});
    });
    arena.release(std::move(e.data));
  }
  return inbox;
}

bool Comm::remote_memory() const { return engine_->in_child(); }

void Comm::host_store(void* addr, const void* src, std::size_t len) const {
  if (engine_->in_child()) {
    engine_->child_host_store(addr, src, len);
    return;
  }
  if (len != 0) std::memcpy(addr, src, len);
}

void Comm::host_load(const void* addr, void* dst, std::size_t len) const {
  if (engine_->in_child()) {
    engine_->child_host_load(addr, dst, len);
    return;
  }
  if (len != 0) std::memcpy(dst, addr, len);
}

void Comm::host_call_store(HostStoreThunk fn, void* ctx, const std::byte* data,
                           std::size_t len) const {
  if (engine_->in_child()) {
    engine_->child_host_call_store(fn, ctx, data, len);
    return;
  }
  fn(ctx, data, len);
}

std::vector<std::byte> Comm::host_call_load(HostLoadThunk fn,
                                            const void* ctx) const {
  if (engine_->in_child()) return engine_->child_host_call_load(fn, ctx);
  std::vector<std::byte> out;
  fn(ctx, out);
  return out;
}

Comm Comm::split(std::uint32_t color, std::uint32_t key,
                 std::source_location loc) {
  return split_(color, key, analysis::CallSite::from(loc));
}

Comm Comm::split_(std::uint32_t color, std::uint32_t key,
                  const analysis::CallSite& site) {
  if (engine_->in_child()) return engine_->child_split(*this, color, key, site);
  // Gather (color, key, world rank) triples from the whole group. The
  // user's split call site is forwarded so divergence reports name it,
  // not this internal allgather.
  struct Entry {
    std::uint32_t color, key, world_rank;
  };
  Entry mine{color, key, world_rank_};
  auto all = from_bytes_<Entry>(
      collective_(analysis::CollOp::kAllGather,
                  as_bytes_(std::span<const Entry>(&mine, 1)), /*root=*/0,
                  nullptr, /*counts=*/nullptr, sizeof(Entry), site));

  std::vector<Entry> members;
  for (const Entry& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return std::make_pair(a.key, a.world_rank) <
           std::make_pair(b.key, b.world_rank);
  });

  auto group = std::make_shared<detail::GroupInfo>();
  {
    exec::ExecLock guard(engine_->executor());
    group->id = engine_->group_id_for_split(group_->id, seq_, color);
  }
  group->members.reserve(members.size());
  std::uint32_t my_index = 0;
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    group->members.push_back(members[i].world_rank);
    if (members[i].world_rank == world_rank_) my_index = i;
  }
  return Comm(engine_, std::move(group), my_index, world_rank_);
}

Comm Comm::shrink(std::source_location loc) {
  return shrink_(analysis::CallSite::from(loc));
}

Comm Comm::shrink_(const analysis::CallSite& site) {
  if (engine_->in_child()) return engine_->child_shrink(*this, site);
  // Shrink rendezvous are keyed off the engine-global failure count, not
  // this comm's seq_ counter: survivors reach shrink() having consumed
  // different numbers of sequence slots (some threw at entry, some were
  // woken out of a poisoned rendezvous), so seq_ no longer agrees across
  // ranks. failed_count() does — every caller shrinking after the same
  // failure observes the same count. kShrinkBase keeps these keys out of
  // the ordinary seq_ range.
  constexpr std::uint64_t kShrinkBase = 1ull << 62;
  exec::ExecLock guard(engine_->executor());
  analysis::CollSignature sig;
  sig.op = analysis::CollOp::kShrink;
  sig.site = site;
  // One entry, and so one comm event, per call: how many attempts a rank
  // makes depends on whether it arrived before a concurrent death.
  const double t_begin = engine_->enter_(*this, sig, nullptr);
  for (;;) {
    sig.seq = kShrinkBase + engine_->failed_count();
    // Each survivor contributes its world rank; the combine concatenates
    // them in group order, which freezes the survivor list before a
    // member that picks up early can hit its own crash trigger.
    detail::CollState* st = engine_->arrive_(
        *this, sig, t_begin, engine_->live_count(*group_),
        [this](detail::CollState& s) {
          s.contribs[group_rank_] =
              as_bytes_(std::span<const std::uint32_t>(&world_rank_, 1));
        });
    // Another rank died while this shrink was in flight: restart. The new
    // failure count yields a fresh key, so all survivors converge on the
    // same retry rendezvous.
    if (st == nullptr) continue;
    engine_->combine_(*st, sig.op, 0, nullptr);

    auto group = std::make_shared<detail::GroupInfo>();
    group->id = engine_->group_id_for_split(group_->id, sig.seq, 0);
    group->members = from_bytes_<std::uint32_t>(st->result);
    const auto my_index = static_cast<std::uint32_t>(
        std::find(group->members.begin(), group->members.end(), world_rank_) -
        group->members.begin());
    // A completed shrink joins every survivor's clock — this is the edge
    // that orders a failed attempt's writes before the recovery rerun.
    engine_->leave_(*this, *st, sig, t_begin, st->charge);
    return Comm(engine_, std::move(group), my_index, world_rank_);
  }
}

// ---------------------------------------------------------------------------
// BspEngine
// ---------------------------------------------------------------------------

BspEngine::BspEngine(Options options)
    : impl_(std::make_unique<detail::EngineImpl>(options)) {}

BspEngine::~BspEngine() = default;

RunStats BspEngine::run(const std::function<void(Comm&)>& program) {
  return impl_->run(program);
}

// ---------------------------------------------------------------------------
// RunStats
// ---------------------------------------------------------------------------

double RunStats::makespan() const {
  double best = 0.0;
  for (double c : clocks) best = std::max(best, c);
  return best;
}

StageCost RunStats::stage_max(const std::string& stage) const {
  StageCost best;
  double best_total = -1.0;
  for (const auto& trace : traces) {
    auto it = trace.find(stage);
    if (it == trace.end()) continue;
    if (it->second.total() > best_total) {
      best_total = it->second.total();
      best = it->second;
    }
  }
  return best;
}

StageCost RunStats::stage_sum(const std::string& stage) const {
  StageCost sum;
  for (const auto& trace : traces) {
    auto it = trace.find(stage);
    if (it != trace.end()) sum += it->second;
  }
  return sum;
}

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::kRoundRobin:
      return "round-robin";
    case Schedule::kReversed:
      return "reversed";
    case Schedule::kSeededShuffle:
      return "seeded-shuffle";
  }
  return "?";
}

namespace {
std::uint64_t mix_in(std::uint64_t h, std::uint64_t v) {
  return hash64(h ^ (v + 0x9E3779B97F4A7C15ull));
}
std::uint64_t mix_double(std::uint64_t h, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return mix_in(h, bits);
}
}  // namespace

std::uint64_t RunStats::fingerprint() const {
  std::uint64_t h = mix_in(0x5CA1AB1Eu, clocks.size());
  for (double c : clocks) h = mix_double(h, c);
  for (const auto& trace : traces) {
    h = mix_in(h, trace.size());
    for (const auto& [stage, cost] : trace) {
      for (char ch : stage) h = mix_in(h, static_cast<std::uint8_t>(ch));
      h = mix_double(h, cost.compute_seconds);
      h = mix_double(h, cost.comm_seconds);
      h = mix_in(h, cost.messages);
      h = mix_in(h, cost.bytes_sent);
      h = mix_in(h, cost.collectives);
      h = mix_in(h, cost.comm_events);
    }
  }
  // The failure *set* is deterministic; the death order of multiple
  // same-run crashes is not under the threads backend (see trace.hpp) —
  // hash the sorted set so fingerprints agree across backends.
  std::vector<std::uint32_t> failed_sorted = failed_ranks;
  std::sort(failed_sorted.begin(), failed_sorted.end());
  for (std::uint32_t r : failed_sorted) h = mix_in(h, r);
  return h;
}

std::vector<std::string> RunStats::stages() const {
  std::vector<std::string> names;
  for (const auto& trace : traces) {
    for (const auto& [name, cost] : trace) {
      (void)cost;
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  return names;
}

}  // namespace sp::comm
