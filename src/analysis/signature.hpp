// Per-rank collective call signatures: the record the SPMD correctness
// analyzer keeps for every collective / exchange / shrink entry.
//
// Each rank entering a rendezvous produces a CollSignature describing what
// it *thinks* the group is doing: the operation kind, communicator group,
// sequence number, element width and payload shape, the pipeline stage,
// and the user call site (captured via std::source_location threaded
// through the Comm API). The engine stores the first arriver's signature
// in the rendezvous state and validates every later arrival against it at
// match time, so a divergent SPMD program fails with a report naming both
// ranks and both call sites instead of deadlocking opaquely or silently
// combining mismatched bytes.
//
// Header-only and dependency-free (std only): sp_comm includes it without
// a link dependency on sp_analysis, which depends on sp_comm.
#pragma once

#include <cstdint>
#include <source_location>
#include <string>

namespace sp::analysis {

/// The op of a rendezvous: the engine's only name for it. The five
/// collectives come first (the process backend's wire carries them as
/// these values), then the two non-collective rendezvous, so an exchange
/// meeting a barrier is a kind mismatch, not a payload puzzle.
enum class CollOp : std::uint8_t {
  kBarrier,
  kAllReduce,
  kAllGather,
  kGather,
  kBroadcast,
  kExchange,
  kShrink,
};

inline const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kBarrier:
      return "barrier";
    case CollOp::kAllReduce:
      return "allreduce";
    case CollOp::kAllGather:
      return "allgather";
    case CollOp::kGather:
      return "gather";
    case CollOp::kBroadcast:
      return "broadcast";
    case CollOp::kExchange:
      return "exchange";
    case CollOp::kShrink:
      return "shrink";
  }
  return "?";
}

/// User call site of a Comm operation. Stores the string_view-able
/// pointers from std::source_location (static storage, copy is free).
struct CallSite {
  const char* file = "?";
  std::uint32_t line = 0;
  const char* function = "?";

  static CallSite from(const std::source_location& loc) {
    CallSite s;
    s.file = loc.file_name();
    s.line = loc.line();
    s.function = loc.function_name();
    return s;
  }

  std::string str() const {
    return std::string(file) + ":" + std::to_string(line) + " in " + function;
  }
};

/// One rank's view of one rendezvous entry.
struct CollSignature {
  CollOp op = CollOp::kBarrier;
  std::uint64_t group_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t root = 0;          // meaningful for gather / broadcast
  std::uint32_t elem_width = 0;    // sizeof(T) at a typed call site; 0 = untyped
  std::uint64_t elem_count = 0;    // payload elements (bytes / elem_width)
  std::uint64_t payload_bytes = 0; // raw contribution size
  std::uint32_t world_rank = 0;
  std::uint32_t group_rank = 0;
  CallSite site;
  std::string stage;

  /// "allreduce(width=8, count=3, root=0) by rank 2 (world 2, stage
  /// 'embed') at file.cpp:42 in foo" — the building block of divergence
  /// and deadlock reports.
  std::string describe() const {
    std::string s = coll_op_name(op);
    s += "(group " + std::to_string(group_id) + ", seq " + std::to_string(seq);
    if (elem_width != 0) {
      s += ", elem width " + std::to_string(elem_width) + ", count " +
           std::to_string(elem_count);
    }
    if (op == CollOp::kGather || op == CollOp::kBroadcast) {
      s += ", root " + std::to_string(root);
    }
    s += ") by group rank " + std::to_string(group_rank) + " (world rank " +
         std::to_string(world_rank) + ", stage '" + stage + "') at " +
         site.str();
    return s;
  }
};

/// Cross-rank match check: validates `mine` against the signature recorded
/// by the first rank to reach this rendezvous. Returns "" when compatible,
/// else a first-divergence report naming both ranks, both call sites, and
/// both stages. Rules:
///   - the operation kind must agree (an exchange never matches a barrier);
///   - gather/broadcast roots must agree;
///   - element widths must agree whenever both sides are typed (a float
///     allreduce meeting a double allreduce is divergent even if the byte
///     counts happen to match);
///   - allreduce contributions must additionally have identical payload
///     size (element-wise reduction requires equal-length vectors).
inline std::string match_signatures(const CollSignature& first,
                                    const CollSignature& mine) {
  const char* why = nullptr;
  if (first.op != mine.op) {
    why = "operation kinds differ";
  } else if ((first.op == CollOp::kGather || first.op == CollOp::kBroadcast) &&
             first.root != mine.root) {
    why = "roots differ";
  } else if (first.elem_width != 0 && mine.elem_width != 0 &&
             first.elem_width != mine.elem_width) {
    why = "element widths differ";
  } else if (first.op == CollOp::kAllReduce &&
             first.payload_bytes != mine.payload_bytes) {
    why = "allreduce payload sizes differ";
  }
  if (why == nullptr) return {};
  return std::string("mismatched collectives at group ") +
         std::to_string(first.group_id) + ", seq " +
         std::to_string(first.seq) + " (" + why + "):\n  first arrival: " +
         first.describe() + "\n  divergent arrival: " + mine.describe();
}

}  // namespace sp::analysis
