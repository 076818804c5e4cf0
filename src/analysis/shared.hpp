// Instrumented wrappers for rank-shared memory — the annotation half of
// the happens-before race auditor (race.hpp, DESIGN.md §8) and, since
// the multi-process backend (DESIGN.md §11), the *access path* that
// makes "shared" memory real when ranks live in separate processes.
//
// The BSP engine's fiber/thread ranks share the host's address space,
// and the library deliberately exploits that for a handful of structures
// (the embedding owner directories, the result slots rank 0 fills,
// checkpoint objects). Those accesses are correct only when some
// rendezvous orders every conflicting pair; this header makes each such
// access visible to the auditor so the claim is checked, not assumed:
//
//   analysis::SharedSpan<std::uint32_t> owner(dir.data(), dir.size(),
//                                             "embed/owner.L2");
//   owner.write(sub, v, rank);        // annotated store
//   std::uint32_t o = owner.read(sub, u);  // annotated load
//
//   analysis::shared_store(world, cut, gmt.cut, "core/cut");
//   level = analysis::shared_load(world, coarsen_ckpt, "core/coarsen_ckpt");
//   analysis::note_shared_write(sub, ckpt, "embed/checkpoint");  // whole object
//
// Each annotation reports (rank, address range, read/write, label, stage,
// call site) to the subscribers of the engine's event stream
// (comm/events.hpp) — one emptiness check when nobody subscribed. With
// SP_ANALYSIS=OFF the auditor half compiles out entirely (no subscriber
// lookup, no source_location capture survives inlining).
//
// On the process backend the same wrappers route the access itself
// through Comm's host-memory seam: a child rank's store/load reaches the
// supervisor process (where the canonical object lives) over the wire,
// while fiber/thread ranks — and every build with the backend compiled
// out — take the direct in-process access. The seam carries zero modeled
// cost, so clocks and fingerprints are bit-identical across backends.
//
// What to annotate: memory written by one rank and read (or written) by
// another during a run. Rank-local scratch — including rank-local copies
// of shared data — should NOT be annotated: it cannot race, and heap
// addresses of short-lived locals can be recycled across ranks, which
// would alias unrelated shadow cells. Host-built structures that are
// immutable for the whole run (the input graph, the hierarchy topology)
// are also out of scope by convention.
//
// Header-only: including this from sp_core/sp_embed does not create a
// link dependency on sp_analysis (the subscriber list lives in sp_comm,
// which they already link).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <source_location>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/engine.hpp"
#include "comm/events.hpp"

namespace sp::analysis {

namespace detail {

// The auditor's half of every annotation; empty, and inlined away, with
// SP_ANALYSIS off.
#ifdef SP_ANALYSIS
inline void record_access(const comm::Comm& comm, const void* addr,
                          std::size_t size, bool is_write, const char* label,
                          const std::source_location& loc) {
  const std::vector<comm::EventSink*>& sinks = comm::subscribers();
  if (sinks.empty()) return;
  comm::RaceAccess a;
  a.world_rank = comm.world_rank();
  // Identity only, never ordering: the auditor keys shadow cells by
  // address. sp-lint-allow(pointer-order)
  a.addr = reinterpret_cast<std::uintptr_t>(addr);
  a.size = size;
  a.is_write = is_write;
  a.label = label;
  a.stage = &comm.stage();
  a.site = CallSite::from(loc);
  for (comm::EventSink* s : sinks) s->on_access(a);
}
#else
inline void record_access(const comm::Comm&, const void*, std::size_t, bool,
                          const char*, const std::source_location&) {}
#endif

// Host-call thunks for the vector slots: executed in the process that
// owns the slot (directly on in-process backends, via the supervisor RPC
// on the process backend — fork keeps the instantiation's address valid
// in both processes).
template <typename T>
void vec_assign_thunk(void* ctx, const std::byte* data, std::size_t len) {
  auto* slot = static_cast<std::vector<T>*>(ctx);
  slot->resize(len / sizeof(T));
  if (len != 0) std::memcpy(slot->data(), data, len);
}

template <typename T>
void vec_fetch_thunk(const void* ctx, std::vector<std::byte>& out) {
  const auto* slot = static_cast<const std::vector<T>*>(ctx);
  out.resize(slot->size() * sizeof(T));
  if (!out.empty()) std::memcpy(out.data(), slot->data(), out.size());
}

}  // namespace detail

/// A non-owning view of a rank-shared array whose element accesses are
/// reported to the race auditor. Cheap to construct and copy (pointer,
/// size, label); the label names the structure in race reports.
template <typename T>
class SharedSpan {
  static_assert(std::is_trivially_copyable_v<T>,
                "shared directories cross the process boundary as bytes");

 public:
  SharedSpan() = default;
  SharedSpan(T* data, std::size_t size, const char* label)
      : data_(data), size_(size), label_(label) {}

  /// Annotated store of element `i` by the calling rank.
  void write(const comm::Comm& comm, std::size_t i, const T& value,
             const std::source_location& loc =
                 std::source_location::current()) const {
    detail::record_access(comm, data_ + i, sizeof(T), /*is_write=*/true,
                          label_, loc);
    if (comm.remote_memory()) {
      comm.host_store(data_ + i, &value, sizeof(T));
      return;
    }
    data_[i] = value;
  }

  /// Annotated load of element `i` by the calling rank.
  T read(const comm::Comm& comm, std::size_t i,
         const std::source_location& loc =
             std::source_location::current()) const {
    detail::record_access(comm, data_ + i, sizeof(T), /*is_write=*/false,
                          label_, loc);
    if (comm.remote_memory()) {
      T value{};
      comm.host_load(data_ + i, &value, sizeof(T));
      return value;
    }
    return data_[i];
  }

  /// Annotated whole-span load. Semantically size() read()s, but fetched
  /// as one bulk transfer — the right shape for read-mostly directories
  /// consumed after the barrier that completes them (e.g. the lattice
  /// halo's owner lookups), where per-element loads would mean one RPC
  /// per vertex on the process backend.
  std::vector<T> snapshot(const comm::Comm& comm,
                          const std::source_location& loc =
                              std::source_location::current()) const {
    detail::record_access(comm, data_, size_ * sizeof(T), /*is_write=*/false,
                          label_, loc);
    std::vector<T> out(size_);
    comm.host_load(data_, out.data(), size_ * sizeof(T));
    return out;
  }

  std::size_t size() const { return size_; }
  const char* label() const { return label_; }
  bool empty() const { return size_ == 0; }

  /// Raw unannotated access — for host-side (outside-the-run) use only.
  T* raw() const { return data_; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  const char* label_ = "";
};

/// Annotated store to a shared scalar slot: `slot = value`, reported as a
/// write of the whole object.
template <typename T>
void shared_store(const comm::Comm& comm, T& slot,
                  std::type_identity_t<T> value, const char* label,
                  const std::source_location& loc =
                      std::source_location::current()) {
  detail::record_access(comm, &slot, sizeof(T), /*is_write=*/true, label, loc);
  if constexpr (std::is_trivially_copyable_v<T>) {
    if (comm.remote_memory()) {
      comm.host_store(&slot, &value, sizeof(T));
      return;
    }
  }
  slot = std::move(value);
}

/// Annotated load of a shared scalar slot.
template <typename T>
T shared_load(const comm::Comm& comm, const T& slot, const char* label,
              const std::source_location& loc =
                  std::source_location::current()) {
  detail::record_access(comm, &slot, sizeof(T), /*is_write=*/false, label,
                        loc);
  if constexpr (std::is_trivially_copyable_v<T> &&
                std::is_default_constructible_v<T>) {
    if (comm.remote_memory()) {
      T value{};
      comm.host_load(&slot, &value, sizeof(T));
      return value;
    }
  }
  return slot;
}

/// Annotated whole-vector store to a shared vector slot. The in-process
/// path is a plain move-assign; a child rank ships the elements to the
/// supervisor, which resizes and fills the canonical vector (the vector
/// *object* is at a fork-stable address; its heap buffer is not, which is
/// why a byte store into data() would be wrong).
template <typename T>
void shared_assign_vec(const comm::Comm& comm, std::vector<T>& slot,
                       std::vector<T> value, const char* label,
                       const std::source_location& loc =
                           std::source_location::current()) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::record_access(comm, &slot, sizeof(slot), /*is_write=*/true, label,
                        loc);
  if (comm.remote_memory()) {
    comm.host_call_store(&detail::vec_assign_thunk<T>, &slot,
                         reinterpret_cast<const std::byte*>(value.data()),
                         value.size() * sizeof(T));
    return;
  }
  slot = std::move(value);
}

/// Annotated whole-vector load of a shared vector slot.
template <typename T>
std::vector<T> shared_fetch_vec(const comm::Comm& comm,
                                const std::vector<T>& slot, const char* label,
                                const std::source_location& loc =
                                    std::source_location::current()) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::record_access(comm, &slot, sizeof(slot), /*is_write=*/false, label,
                        loc);
  if (comm.remote_memory()) {
    const std::vector<std::byte> bytes =
        comm.host_call_load(&detail::vec_fetch_thunk<T>, &slot);
    std::vector<T> out(bytes.size() / sizeof(T));
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }
  return slot;
}

/// Annotates a write to `obj` (the caller performs the actual mutation).
/// Object-granular: reports the struct's own address range, so two ranks
/// mutating any part of the same object conflict. Use for checkpoint
/// structs and other aggregates whose inner buffers reallocate.
template <typename T>
void note_shared_write(const comm::Comm& comm, const T& obj, const char* label,
                       const std::source_location& loc =
                           std::source_location::current()) {
  detail::record_access(comm, &obj, sizeof(T), /*is_write=*/true, label, loc);
}

/// Annotates a read of `obj` (the caller performs the actual access).
template <typename T>
void note_shared_read(const comm::Comm& comm, const T& obj, const char* label,
                      const std::source_location& loc =
                          std::source_location::current()) {
  detail::record_access(comm, &obj, sizeof(T), /*is_write=*/false, label, loc);
}

}  // namespace sp::analysis
