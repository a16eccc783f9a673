#include "netapps/netapps.h"

#include <cstring>

#include "netstack/stack.h"
#include "sim/rng.h"

namespace tsxhpc::netapps {

using netstack::NetStack;
using sim::Context;
using sim::Machine;
using sim::Xoshiro256;

namespace {

/// Fill a buffer with seeded words and return their sum (payload digest).
std::uint64_t fill(std::uint8_t* buf, std::size_t n, Xoshiro256& rng) {
  std::uint64_t sum = 0;
  for (std::size_t off = 0; off < n; off += 8) {
    const std::uint64_t w = rng.next();
    std::memcpy(buf + off, &w, 8);
    sum += w;
  }
  return sum;
}

std::uint64_t digest(const std::uint8_t* buf, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t off = 0; off < n; off += 8) {
    std::uint64_t w;
    std::memcpy(&w, buf + off, 8);
    sum += w;
  }
  return sum;
}

/// Shared harness: `client` and `server` bodies per connection; collects
/// bandwidth from the server-side byte counts.
template <typename ClientFn, typename ServerFn>
Result run_app(const Config& cfg, ClientFn&& client, ServerFn&& server) {
  Machine m(cfg.machine);
  NetStack stack(m, cfg.scheme, cfg.connections, 64 * 1024);

  std::vector<std::uint64_t> sent_digest(cfg.connections, 0);
  std::vector<std::uint64_t> recv_digest(cfg.connections, 0);
  std::vector<std::uint64_t> recv_bytes(cfg.connections, 0);

  std::vector<std::function<void(Context&)>> bodies;
  for (int i = 0; i < cfg.connections; ++i) {
    bodies.emplace_back([&, i](Context& c) {
      client(c, m, stack, i, sent_digest[i]);
    });
  }
  for (int i = 0; i < cfg.connections; ++i) {
    bodies.emplace_back([&, i](Context& c) {
      server(c, m, stack, i, recv_digest[i], recv_bytes[i]);
    });
  }

  Result r;
  sim::RunSpec spec;
  spec.bodies = std::move(bodies);
  spec.label = cfg.run_label;
  r.stats = m.run(spec);
  r.makespan = r.stats.makespan;
  bool ok = true;
  for (int i = 0; i < cfg.connections; ++i) {
    r.server_bytes += recv_bytes[i];
    if (recv_digest[i] != sent_digest[i]) ok = false;
  }
  r.bandwidth_mbps =
      static_cast<double>(r.server_bytes) / 1e6 / m.seconds(r.makespan);
  r.checksum = ok && r.server_bytes > 0 ? 0x6E7 : 0;
  return r;
}

}  // namespace

Result run_netferret(const Config& cfg) {
  // Similarity search: the client sends a small query image descriptor; the
  // server ranks candidates and returns a small result list. Thousands of
  // small messages — request/response per query.
  const std::size_t n_queries =
      static_cast<std::size_t>(64 * cfg.scale) < 8
          ? 8
          : static_cast<std::size_t>(64 * cfg.scale);
  // Pure request/response over small packets: every send lands in an empty
  // buffer (signal) and every receive finds it empty (wait) — "the workload
  // sends/receives many small packets over the network" is what breaks
  // tsx.abort: nearly every critical section contains a condition-variable
  // operation and must abort to the lock.
  constexpr std::size_t kQueryBytes = 256;
  constexpr std::size_t kReplyBytes = 128;

  auto client = [&](Context& c, Machine&, NetStack& stack, int i,
                    std::uint64_t& sd) {
    Xoshiro256 rng(cfg.seed * 101 + i);
    std::uint8_t buf[kQueryBytes];
    std::uint8_t reply[kReplyBytes];
    for (std::size_t q = 0; q < n_queries; ++q) {
      c.compute(2500);  // feature extraction for the query
      sd += fill(buf, kQueryBytes, rng);
      stack.send(c, stack.conn(i).to_server, buf, kQueryBytes);
      // Wait for the ranked answer (ping-pong).
      std::size_t got = 0;
      while (got < kReplyBytes) {
        const std::size_t k = stack.recv(c, stack.conn(i).to_client,
                                         reply + got, kReplyBytes - got);
        if (k == 0) break;
        got += k;
      }
    }
    stack.shutdown(c, stack.conn(i).to_server);
  };

  auto server = [&](Context& c, Machine&, NetStack& stack, int i,
                    std::uint64_t& rd, std::uint64_t& rb) {
    Xoshiro256 rng(cfg.seed * 777 + i);
    std::uint8_t buf[kQueryBytes];
    std::uint8_t reply[kReplyBytes];
    for (;;) {
      std::size_t got = 0;
      while (got < kQueryBytes) {
        const std::size_t k = stack.recv(c, stack.conn(i).to_server,
                                         buf + got, kQueryBytes - got);
        if (k == 0) goto done;
        got += k;
      }
      rd += digest(buf, kQueryBytes);
      rb += kQueryBytes;
      c.compute(4000);  // candidate ranking
      fill(reply, kReplyBytes, rng);
      stack.send(c, stack.conn(i).to_client, reply, kReplyBytes);
    }
  done:
    stack.shutdown(c, stack.conn(i).to_client);
  };

  return run_app(cfg, client, server);
}

Result run_netdedup(const Config& cfg) {
  // Dedup pipeline: client streams large chunks; server fingerprints and
  // compresses them. As in the paper, the input stage runs in full first
  // (pure streaming — no request/response coupling).
  const std::size_t n_chunks =
      static_cast<std::size_t>(48 * cfg.scale) < 4
          ? 4
          : static_cast<std::size_t>(48 * cfg.scale);
  constexpr std::size_t kChunkBytes = 4096;

  auto client = [&](Context& c, Machine&, NetStack& stack, int i,
                    std::uint64_t& sd) {
    Xoshiro256 rng(cfg.seed * 131 + i);
    std::vector<std::uint8_t> buf(kChunkBytes);
    for (std::size_t q = 0; q < n_chunks; ++q) {
      c.compute(10000);  // chunking + SHA1 of the outgoing block
      sd += fill(buf.data(), kChunkBytes, rng);
      stack.send(c, stack.conn(i).to_server, buf.data(), kChunkBytes);
    }
    stack.shutdown(c, stack.conn(i).to_server);
  };

  auto server = [&](Context& c, Machine&, NetStack& stack, int i,
                    std::uint64_t& rd, std::uint64_t& rb) {
    std::vector<std::uint8_t> buf(kChunkBytes);
    for (;;) {
      const std::size_t k =
          stack.recv(c, stack.conn(i).to_server, buf.data(), kChunkBytes);
      if (k == 0) break;
      rd += digest(buf.data(), k);
      rb += k;
      // Rabin fingerprinting + compression of the received bytes.
      c.compute(static_cast<sim::Cycles>(k * 12));
    }
  };

  return run_app(cfg, client, server);
}

Result run_netstreamcluster(const Config& cfg) {
  // Online clustering: client streams fixed-size points; server assigns
  // each batch to centers (compute proportional to batch size).
  const std::size_t n_points =
      static_cast<std::size_t>(768 * cfg.scale) < 32
          ? 32
          : static_cast<std::size_t>(768 * cfg.scale);
  constexpr std::size_t kPointBytes = 256;

  auto client = [&](Context& c, Machine&, NetStack& stack, int i,
                    std::uint64_t& sd) {
    Xoshiro256 rng(cfg.seed * 173 + i);
    std::uint8_t buf[kPointBytes];
    for (std::size_t p = 0; p < n_points; ++p) {
      c.compute(5000);  // point generation / parse
      sd += fill(buf, kPointBytes, rng);
      stack.send(c, stack.conn(i).to_server, buf, kPointBytes);
    }
    stack.shutdown(c, stack.conn(i).to_server);
  };

  auto server = [&](Context& c, Machine&, NetStack& stack, int i,
                    std::uint64_t& rd, std::uint64_t& rb) {
    // Point-sized reads: short receive critical sections (long ones overlap
    // many sender sections and conflict on the ring indices).
    std::vector<std::uint8_t> buf(kPointBytes);
    for (;;) {
      const std::size_t k =
          stack.recv(c, stack.conn(i).to_server, buf.data(), buf.size());
      if (k == 0) break;
      rd += digest(buf.data(), k);
      rb += k;
      c.compute(static_cast<sim::Cycles>(k * 25));  // distance computations
    }
  };

  return run_app(cfg, client, server);
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"netferret", run_netferret},
      {"netdedup", run_netdedup},
      {"netstreamcluster", run_netstreamcluster},
  };
  return kWorkloads;
}

}  // namespace tsxhpc::netapps
