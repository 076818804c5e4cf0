// Parent-side supervisor for the multi-process backend (DESIGN.md §11).
//
// ProcessHost owns the OS mechanics of the backend — socketpairs, fork,
// the SPFRAME handshake, the poll loop, and child reaping — and nothing
// of the RPC semantics (that is engine.cpp's proxy dispatch). Per child
// rank it holds two Unix-domain stream sockets:
//
//   ctrl  handshake + the final Exit frame;
//   data  all RPC request/reply traffic.
//
// The engine's idle handler calls poll_ranks() with the set of ranks
// whose proxy fibers are waiting for child traffic; the host blocks in
// poll(2) over those fds and pumps every readable channel into its frame
// decoder. A channel reaching EOF (or ECONNRESET) without a prior Exit
// frame is how a SIGKILLed child announces itself — the proxy maps that
// to the engine's kill/poison path, landing real crashes in exactly the
// modeled FaultPlan failure machinery.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/wire.hpp"

namespace sp::comm::detail {

/// The child process's two socket ends (valid only in the child).
struct ChildEndpoint {
  std::uint32_t rank = 0;
  std::unique_ptr<FrameChannel> ctrl;
  std::unique_ptr<FrameChannel> data;
};

class ProcessHost {
 public:
  /// One supervised child, parent side.
  struct Child {
    pid_t pid = -1;
    std::unique_ptr<FrameChannel> ctrl;
    std::unique_ptr<FrameChannel> data;
    bool reaped = false;
  };

  ProcessHost(std::uint32_t nranks, std::uint64_t nonce);
  ~ProcessHost();
  ProcessHost(const ProcessHost&) = delete;
  ProcessHost& operator=(const ProcessHost&) = delete;

  /// Forks the process for `rank` (1-based world rank; rank 0 stays in
  /// the parent). Returns nullptr in the parent, the child's endpoint in
  /// the child. The child closes every inherited fd of its siblings, so
  /// each socket has exactly two owners and EOF means what it says.
  std::unique_ptr<ChildEndpoint> spawn(std::uint32_t rank);

  /// Parent side of the handshake with `rank`: sends kHello on ctrl,
  /// blocks for kWelcome, validates both directions' SPFRAME identity.
  /// Throws WireError{kHandshake} (after which the run cannot start).
  void handshake(std::uint32_t rank);

  /// Child side of the handshake (call from the child with its
  /// endpoint): validates kHello, replies kWelcome.
  static void child_handshake(ChildEndpoint& ep, std::uint32_t nranks,
                              std::uint64_t nonce);

  Child& child(std::uint32_t rank);

  /// Blocks in poll(2) over the ctrl+data fds of `ranks` until at least
  /// one is readable, then pumps every readable channel. Returns true if
  /// any frame was decoded or any EOF was newly observed (some proxy
  /// predicate may now pass); false only if `ranks` was empty. Decode
  /// errors (corrupt frame) propagate as WireError.
  bool poll_ranks(const std::vector<std::uint32_t>& ranks);

  /// Closes both channels of `rank` (EOFs the child if still alive).
  void close_child(std::uint32_t rank);

  /// Closes every channel and reaps every child: a bounded-wall-clock
  /// waitpid grace period, then SIGKILL + blocking reap for stragglers.
  /// Idempotent; called from the destructor as a last resort.
  void shutdown();

  std::uint64_t nonce() const { return nonce_; }

 private:
  std::uint32_t nranks_;
  std::uint64_t nonce_;
  std::vector<Child> children_;  // indexed by world rank; [0] unused
};

}  // namespace sp::comm::detail
