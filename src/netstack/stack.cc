#include "netstack/stack.h"

#include <cstring>

namespace tsxhpc::netstack {

SocketBuffer::SocketBuffer(Machine& m, sync::TxMonitor& /*monitor*/,
                           std::size_t capacity)
    : capacity_(capacity),
      data_(m.alloc({.name = "sockbuf/data", .bytes = capacity})),
      head_(sim::Shared<std::uint64_t>::alloc(m, {.name = "sockbuf/head"}, 0)),
      tail_(sim::Shared<std::uint64_t>::alloc(m, {.name = "sockbuf/tail"}, 0)),
      eof_(sim::Shared<std::uint32_t>::alloc(m, {.name = "sockbuf/eof"}, 0)),
      not_empty_(m),
      not_full_(m) {
  if (capacity % 8 != 0) {
    throw sim::SimError("socket buffer capacity must be a multiple of 8");
  }
}

std::uint64_t SocketBuffer::readable(Context& c) const {
  return tail_.load(c) - head_.load(c);
}

std::uint64_t SocketBuffer::writable(Context& c) const {
  return capacity_ - (tail_.load(c) - head_.load(c));
}

void SocketBuffer::push(Context& c, const std::uint8_t* data, std::size_t n) {
  std::uint64_t pos = tail_.load(c);
  for (std::size_t off = 0; off < n; off += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + off, 8);
    c.store(data_ + (pos + off) % capacity_, w, 8);
  }
  tail_.store(c, pos + n);
}

void SocketBuffer::pop(Context& c, std::uint8_t* out, std::size_t n) {
  std::uint64_t pos = head_.load(c);
  for (std::size_t off = 0; off < n; off += 8) {
    const std::uint64_t w = c.load(data_ + (pos + off) % capacity_, 8);
    std::memcpy(out + off, &w, 8);
  }
  head_.store(c, pos + n);
}

void SocketBuffer::mark_eof(Context& c) { eof_.store(c, 1); }
bool SocketBuffer::eof(Context& c) const { return eof_.load(c) != 0; }

NetStack::NetStack(Machine& m, sync::MonitorScheme scheme,
                   int num_connections, std::size_t socket_bytes)
    : monitor_(m, scheme),
      next_slot_(sim::Shared<std::uint64_t>::alloc(m, {.name = "netstack/next_slot"}, 0)),
      accept_head_(
          sim::Shared<std::uint64_t>::alloc(m, {.name = "netstack/accept"}, 0)),
      accept_tail_(
          sim::Shared<std::uint64_t>::alloc(m, {.name = "netstack/accept"}, 0)),
      accept_queue_(sim::SharedArray<std::uint64_t>::alloc(
          m, {.name = "netstack/accept_queue"},
          static_cast<std::size_t>(num_connections), 0)),
      listener_open_(
          sim::Shared<std::uint32_t>::alloc(m, {.name = "netstack/listener"}, 1)),
      accept_cv_(m) {
  conns_.reserve(num_connections);
  for (int i = 0; i < num_connections; ++i) {
    auto conn = std::make_unique<Connection>();
    conn->to_server = SocketBuffer(m, monitor_, socket_bytes);
    conn->to_client = SocketBuffer(m, monitor_, socket_bytes);
    conns_.push_back(std::move(conn));
  }
}

int NetStack::connect(Context& c) {
  int idx = -1;
  monitor_.enter(c, [&](sync::MonitorOps& ops) {
    c.compute(kSegmentCost);  // SYN/SYN-ACK processing
    const std::uint64_t slot = next_slot_.load(c);
    if (slot >= conns_.size()) {
      throw sim::SimError("netstack: connection slots exhausted");
    }
    next_slot_.store(c, slot + 1);
    const std::uint64_t t = accept_tail_.load(c);
    accept_queue_.at(t % conns_.size()).store(c, slot);
    accept_tail_.store(c, t + 1);
    idx = static_cast<int>(slot);
    ops.signal(accept_cv_);
  });
  return idx;
}

int NetStack::accept(Context& c) {
  int idx = kNoConnection;
  monitor_.enter(c, [&](sync::MonitorOps& ops) {
    idx = kNoConnection;
    const std::uint64_t h = accept_head_.load(c);
    if (h == accept_tail_.load(c)) {
      if (listener_open_.load(c) == 0) return;  // drained + closed
      ops.wait(accept_cv_);
    }
    c.compute(kSegmentCost);  // ACK / socket setup
    idx = static_cast<int>(accept_queue_.at(h % conns_.size()).load(c));
    accept_head_.store(c, h + 1);
  });
  return idx;
}

void NetStack::close_listener(Context& c) {
  monitor_.enter(c, [&](sync::MonitorOps& ops) {
    listener_open_.store(c, 0);
    ops.broadcast(accept_cv_);
  });
}

void NetStack::send(Context& c, SocketBuffer& dir, const std::uint8_t* data,
                    std::size_t n) {
  if (n % 8 != 0) throw sim::SimError("send size must be a multiple of 8");
  std::size_t off = 0;
  while (off < n) {
    const std::size_t seg = std::min(kMss, n - off);
    monitor_.enter(c, [&](sync::MonitorOps& ops) {
      // Read-only prefix: check space, wait if the peer is slow.
      if (dir.writable(c) < seg) ops.wait(dir.not_full());
      const bool was_empty = dir.readable(c) == 0;
      c.compute(kSegmentCost);  // header build, checksum, enqueue
      dir.push(c, data + off, seg);
      // Signal only on the empty -> non-empty transition: a reader can
      // only be waiting if it found the buffer empty.
      if (was_empty) ops.signal(dir.not_empty());
    });
    off += seg;
  }
}

std::size_t NetStack::recv(Context& c, SocketBuffer& dir, std::uint8_t* out,
                           std::size_t n) {
  n &= ~std::size_t{7};
  std::size_t got = 0;
  monitor_.enter(c, [&](sync::MonitorOps& ops) {
    got = 0;
    const std::uint64_t avail = dir.readable(c);
    if (avail == 0) {
      if (dir.eof(c)) return;  // connection drained
      ops.wait(dir.not_empty());
    }
    const std::size_t take =
        static_cast<std::size_t>(std::min<std::uint64_t>(avail, n));
    // A writer can only be waiting if it found less than one MSS of space.
    const bool was_tight = dir.writable(c) < kMss;
    c.compute(kSegmentCost);  // protocol receive path
    dir.pop(c, out, take);
    got = take;
    if (was_tight) ops.signal(dir.not_full());
  });
  return got;
}

void NetStack::shutdown(Context& c, SocketBuffer& dir) {
  monitor_.enter(c, [&](sync::MonitorOps& ops) {
    dir.mark_eof(c);
    ops.broadcast(dir.not_empty());
  });
}

}  // namespace tsxhpc::netstack
