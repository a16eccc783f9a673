// User-level TCP/IP-like stack (Section 6): a re-creation of the PARSEC 3.0
// multithreaded user-level network stack's synchronization structure. All
// stack synchronization — the stack lock and every condition variable —
// lives in ONE locking module (a TxMonitor), exactly like the PARSEC port
// wraps pthreads in a single locking module. Swapping the module's scheme
// converts the whole stack between the paper's five variants (mutex,
// tsx.abort, tsx.cond, mutex.busywait, tsx.busywait) with no changes to
// stack or application code.
//
// Data moves through per-connection socket ring buffers in simulated shared
// memory; the copies are timed, so protocol processing under the stack lock
// is the serialization bottleneck the paper studies.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/machine.h"
#include "sim/shared.h"
#include "sync/monitor.h"

namespace tsxhpc::netstack {

using sim::Addr;
using sim::Context;
using sim::Machine;

/// Maximum segment size, in bytes (must be a multiple of 8).
inline constexpr std::size_t kMss = 1464;

/// One direction of a connection: a bounded byte ring in shared memory.
class SocketBuffer {
 public:
  SocketBuffer() = default;
  SocketBuffer(Machine& m, sync::TxMonitor& monitor, std::size_t capacity);

  /// Bytes available to read / space available to write (call under the
  /// stack monitor).
  std::uint64_t readable(Context& c) const;
  std::uint64_t writable(Context& c) const;

  /// Copy `n` bytes (multiple of 8) in/out; caller must have checked
  /// readable/writable under the monitor.
  void push(Context& c, const std::uint8_t* data, std::size_t n);
  void pop(Context& c, std::uint8_t* out, std::size_t n);

  sync::CondVar& not_empty() { return not_empty_; }
  sync::CondVar& not_full() { return not_full_; }
  std::size_t capacity() const { return capacity_; }

  /// Sender is done; readers must not wait once drained.
  void mark_eof(Context& c);
  bool eof(Context& c) const;

 private:
  std::size_t capacity_ = 0;
  Addr data_ = sim::kNullAddr;
  sim::Shared<std::uint64_t> head_;  // total bytes consumed
  sim::Shared<std::uint64_t> tail_;  // total bytes produced
  sim::Shared<std::uint32_t> eof_;
  sync::CondVar not_empty_;
  sync::CondVar not_full_;
};

/// A full-duplex connection: client->server and server->client buffers.
struct Connection {
  SocketBuffer to_server;
  SocketBuffer to_client;
};

/// The stack: a set of connections plus the single locking module.
class NetStack {
 public:
  /// Returned by accept(); -1 = listener shut down and drained.
  static constexpr int kNoConnection = -1;
  /// `scheme` selects the locking-module implementation (Figure 6 series).
  NetStack(Machine& m, sync::MonitorScheme scheme, int num_connections,
           std::size_t socket_bytes = 16 * 1024);

  Connection& conn(int i) { return *conns_[i]; }
  int num_connections() const { return static_cast<int>(conns_.size()); }
  sync::TxMonitor& monitor() { return monitor_; }

  // --- Blocking socket API (application side) -----------------------------

  /// Send `n` bytes (multiple of 8), segmenting into MSS-sized protocol
  /// units. Blocks (per the locking module's wait policy) when the peer's
  /// buffer is full.
  void send(Context& c, SocketBuffer& dir, const std::uint8_t* data,
            std::size_t n);

  /// Receive up to `n` bytes; blocks until at least 8 bytes are available
  /// or EOF. Returns bytes read (0 = EOF and drained).
  std::size_t recv(Context& c, SocketBuffer& dir, std::uint8_t* out,
                   std::size_t n);

  /// Close the sending side.
  void shutdown(Context& c, SocketBuffer& dir);

  /// Protocol-processing cycles charged under the stack lock per segment
  /// (header parsing, checksum, demux — the PARSEC stack does this under
  /// its lock, which is why eliding it exposes concurrency).
  static constexpr sim::Cycles kSegmentCost = 350;

  // --- Connection establishment (listen/accept/connect) -------------------
  // Connection slots are provisioned up front (num_connections); connect()
  // claims one and enqueues it on the accept queue; accept() blocks on the
  // stack's locking module until a connection (or listener shutdown)
  // arrives. Handshake processing is charged under the stack lock, like
  // everything else.

  /// Client side: claim a connection slot and enqueue it for accept().
  /// Returns the connection index.
  int connect(Context& c);

  /// Server side: wait for the next incoming connection; returns its index
  /// or kNoConnection once the listener is closed and the backlog drained.
  int accept(Context& c);

  /// Stop accepting: pending and future accept() calls drain then return
  /// kNoConnection.
  void close_listener(Context& c);

 private:
  sync::TxMonitor monitor_;
  std::vector<std::unique_ptr<Connection>> conns_;
  // Accept queue state (shared words guarded by the locking module).
  sim::Shared<std::uint64_t> next_slot_;
  sim::Shared<std::uint64_t> accept_head_;
  sim::Shared<std::uint64_t> accept_tail_;
  sim::SharedArray<std::uint64_t> accept_queue_;
  sim::Shared<std::uint32_t> listener_open_;
  sync::CondVar accept_cv_;
};

}  // namespace tsxhpc::netstack
