// Deterministic fault injection for the BSP runtime.
//
// A FaultPlan is a seeded, declarative schedule of faults the engine
// applies while running an SPMD program: rank crashes (fail-stop),
// straggler clock inflation, and message drop/corruption inside
// exchange(). Because the engine is single-threaded and deterministic,
// the same plan + program + seed reproduces the identical failure,
// trace, and recovery bit-for-bit — something a real cluster can never
// do, and the property the fault-tolerance tests rely on.
//
// Failure semantics (ULFM-style, see DESIGN.md "Fault model"):
//  - A crashed rank's fiber unwinds and is retired; it never completes
//    another operation.
//  - Every surviving rank observes the failure as a RankFailedError
//    raised at its next collective or exchange on a communicator that
//    contains a dead rank (never a hang). Survivors then typically call
//    Comm::shrink() to obtain a working communicator of the survivors.
//  - Crash triggers are evaluated at communication-event boundaries
//    (each collective or exchange entry is one event), so a time-
//    triggered crash fires at the first event where the rank's virtual
//    clock has reached the trigger time.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace sp::comm {

/// Raised for a FaultPlan that can never behave as written: a fault aimed
/// at a rank outside the world, a non-positive straggler factor, or an
/// empty stage name handed to kill_in_stage (which would silently turn a
/// stage-scoped trigger into a lifetime-scoped one). The engine validates
/// the plan at construction so a misconfigured experiment fails loudly
/// instead of running fault-free.
class FaultPlanError : public std::logic_error {
 public:
  explicit FaultPlanError(const std::string& msg) : std::logic_error(msg) {}
};

/// Deterministic failure detector on the modeled clock (all off by
/// default). When `deadline_seconds` > 0, every completed collective or
/// exchange rendezvous compares its members' arrival clocks: a member
/// whose lag behind the earliest arrival exceeds the deadline draws a
/// *suspicion*. Each suspicion below the retry budget charges the whole
/// group `backoff_seconds * suspicion-count` of modeled wait (the cost of
/// re-probing a slow peer); the suspicion that exhausts the budget
/// escalates — the suspect is declared failed and killed at its next
/// pickup, after which survivors observe the standard RankFailedError /
/// shrink path. Arrival clocks are deterministic, so detection is too.
struct FailureDetectorOptions {
  /// Maximum tolerated arrival lag (seconds) behind the earliest group
  /// member before a suspicion is drawn; <= 0 disables the detector.
  double deadline_seconds = -1.0;
  /// Suspicions tolerated (with backoff) before escalation to failure.
  std::uint32_t max_retries = 3;
  /// Modeled wait charged to the group per retry, scaled linearly by the
  /// suspect's suspicion count.
  double backoff_seconds = 0.0;

  bool enabled() const { return deadline_seconds > 0.0; }
};

struct FaultPlan {
  /// Fail-stop crash of one rank. Trigger fields combine as AND: the
  /// rank dies at the first communication event satisfying all set
  /// conditions. Fires at most once (the rank stays dead).
  struct Crash {
    std::uint32_t rank = 0;  // world rank to kill
    /// Non-empty: only fire while the rank is in this pipeline stage
    /// (as tagged by Comm::set_stage).
    std::string stage;
    /// Fire at the Nth communication event in scope (0 = first event;
    /// counted within `stage` when set, else over the rank's lifetime).
    std::uint64_t after_events = 0;
    /// >= 0: additionally require the rank's virtual clock to have
    /// reached this time (seconds).
    double at_time = -1.0;
  };

  /// Multiplies every virtual-clock charge (compute and communication)
  /// of `rank` by `factor` once the rank's clock reaches `from_time`.
  /// Models a persistently slow node; collectives make everyone wait
  /// for it, exactly as on a real machine.
  struct Straggler {
    std::uint32_t rank = 0;
    double factor = 1.0;
    double from_time = 0.0;
  };

  static constexpr std::uint32_t kAnyPeer =
      std::numeric_limits<std::uint32_t>::max();

  /// Tampers with the outgoing packets of one exchange() call.
  struct MessageFault {
    enum class Kind { kDrop, kCorrupt };
    std::uint32_t rank = 0;         // sender (world rank)
    std::uint64_t at_exchange = 0;  // the sender's Nth exchange call
    std::uint32_t peer = kAnyPeer;  // destination group rank; kAnyPeer = all
    Kind kind = Kind::kDrop;
  };

  /// Seed for deterministic corruption bytes.
  std::uint64_t seed = 0x5EEDFA17u;
  std::vector<Crash> crashes;
  std::vector<Straggler> stragglers;
  std::vector<MessageFault> message_faults;

  bool empty() const {
    return crashes.empty() && stragglers.empty() && message_faults.empty();
  }

  /// Rejects faults that could never fire (or would fire nonsensically)
  /// in a world of `world_size` ranks. Called by BspEngine at
  /// construction; throws FaultPlanError naming the offending entry.
  void validate(std::uint32_t world_size) const {
    auto bad_rank = [&](const char* what, std::size_t i, std::uint32_t r) {
      throw FaultPlanError(
          "FaultPlan: " + std::string(what) + " #" + std::to_string(i) +
          " targets rank " + std::to_string(r) + ", but the world has only " +
          std::to_string(world_size) + " rank(s) — it could never fire");
    };
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      if (crashes[i].rank >= world_size) bad_rank("crash", i, crashes[i].rank);
    }
    for (std::size_t i = 0; i < stragglers.size(); ++i) {
      const Straggler& s = stragglers[i];
      if (s.rank >= world_size) bad_rank("straggler", i, s.rank);
      if (!(s.factor > 0.0)) {
        throw FaultPlanError(
            "FaultPlan: straggler #" + std::to_string(i) + " has factor " +
            std::to_string(s.factor) +
            "; slowdown factors must be positive (use > 1 to slow a rank)");
      }
    }
    for (std::size_t i = 0; i < message_faults.size(); ++i) {
      const MessageFault& f = message_faults[i];
      if (f.rank >= world_size) bad_rank("message fault", i, f.rank);
      if (f.peer != kAnyPeer && f.peer >= world_size) {
        throw FaultPlanError(
            "FaultPlan: message fault #" + std::to_string(i) +
            " names peer " + std::to_string(f.peer) +
            " in a world of " + std::to_string(world_size) +
            " rank(s) (use FaultPlan::kAnyPeer for all peers)");
      }
    }
  }

  // ---- Convenience builders (chainable via repeated calls) ----

  FaultPlan& kill_at_event(std::uint32_t rank, std::uint64_t event) {
    crashes.push_back({rank, "", event, -1.0});
    return *this;
  }
  FaultPlan& kill_at_time(std::uint32_t rank, double time) {
    crashes.push_back({rank, "", 0, time});
    return *this;
  }
  /// Kill `rank` at its `event`-th communication event after entering
  /// `stage` (0 = the first event of the stage). An empty stage name is
  /// rejected here: Crash{} treats "" as "any stage" (a lifetime
  /// trigger), so passing one would silently build a different trigger
  /// than the call-site reads.
  FaultPlan& kill_in_stage(std::uint32_t rank, std::string stage,
                           std::uint64_t event = 0) {
    if (stage.empty()) {
      throw FaultPlanError(
          "FaultPlan::kill_in_stage: empty stage name (for a trigger that "
          "fires in any stage, use kill_at_event)");
    }
    crashes.push_back({rank, std::move(stage), event, -1.0});
    return *this;
  }
  FaultPlan& slow_rank(std::uint32_t rank, double factor,
                       double from_time = 0.0) {
    stragglers.push_back({rank, factor, from_time});
    return *this;
  }
  FaultPlan& drop_message(std::uint32_t rank, std::uint64_t at_exchange,
                          std::uint32_t peer = kAnyPeer) {
    message_faults.push_back({rank, at_exchange, peer,
                              MessageFault::Kind::kDrop});
    return *this;
  }
  FaultPlan& corrupt_message(std::uint32_t rank, std::uint64_t at_exchange,
                             std::uint32_t peer = kAnyPeer) {
    message_faults.push_back({rank, at_exchange, peer,
                              MessageFault::Kind::kCorrupt});
    return *this;
  }
};

/// Raised on every surviving rank when it touches a communicator
/// containing a crashed rank (at collective/exchange entry, or when a
/// rendezvous it is blocked in can no longer complete). Catch it, call
/// Comm::shrink(), and continue on the returned communicator.
class RankFailedError : public std::runtime_error {
 public:
  explicit RankFailedError(std::vector<std::uint32_t> failed)
      : std::runtime_error(format_(failed)), failed_(std::move(failed)) {}

  /// World ranks that have crashed (all failures known engine-wide at
  /// the time the error was raised, in order of death).
  const std::vector<std::uint32_t>& failed_ranks() const { return failed_; }

 private:
  static std::string format_(const std::vector<std::uint32_t>& failed) {
    std::string msg = "rank(s) failed:";
    for (std::uint32_t r : failed) msg.append(" ").append(std::to_string(r));
    return msg;
  }
  std::vector<std::uint32_t> failed_;
};

}  // namespace sp::comm
