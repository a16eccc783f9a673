#include "sim/context.h"

#include <cstring>

#include "sim/machine.h"

namespace tsxhpc::sim {

namespace {
constexpr Addr kWordMask = ~static_cast<Addr>(7);
}

int Context::num_threads() const { return m_.engine()->num_threads(); }

Cycles Context::now() const { return m_.engine()->clock(tid_); }

ThreadStats& Context::stats() { return m_.stats()[tid_]; }

void Context::charge(Cycles c, CycleBucket dflt) {
  if (c == 0) return;
  if (m_.mem().in_tx(tid_)) {
    // Outcome unknown until commit/abort; flushed by tx_account_end.
    tx_pending_ += c;
    return;
  }
  CycleBucket b = dflt;
  if (b == CycleBucket::kWork || b == CycleBucket::kMemStall) {
    if (lock_wait_depth_ > 0) {
      b = CycleBucket::kLockWait;
    } else if (fallback_depth_ > 0) {
      b = CycleBucket::kFallback;
    }
  }
  stats().cycles_by_bucket[static_cast<std::size_t>(b)] += c;
}

void Context::charge_mem(Cycles lat, MemLevel level) {
  if (m_.mem().in_tx(tid_)) {
    tx_pending_ += lat;
    return;
  }
  const Cycles hit = m_.config().lat_l1_hit;
  const Cycles work = lat < hit ? lat : hit;
  charge(work, CycleBucket::kWork);
  const Cycles stall = lat - work;
  charge(stall, CycleBucket::kMemStall);
  // Mirror charge()'s rerouting: only stalls that land in kMemStall are
  // attributed per level, so sum(mem_stall_by_level) == the kMemStall bucket.
  if (stall > 0 && lock_wait_depth_ == 0 && fallback_depth_ == 0) {
    stats().mem_stall_by_level[static_cast<std::size_t>(level)] += stall;
  }
}

void Context::compute(Cycles cycles) {
  check_doom();
  m_.engine()->advance(tid_, cycles);
  charge(cycles, CycleBucket::kWork);
}

void Context::yield() {
  check_doom();
  m_.engine()->yield_point(tid_);
}

void Context::tx_backoff(Cycles cycles) {
  check_doom();
  if (m_.mem().in_tx(tid_)) {
    throw SimError("tx_backoff inside a transaction");
  }
  if (cycles == 0) return;
  m_.engine()->advance(tid_, cycles);
  // Bypasses charge()'s scope rerouting on purpose: backoff is abort waste
  // even when a lock-wait scope happens to be open.
  stats().cycles_by_bucket[static_cast<std::size_t>(CycleBucket::kTxWasted)] +=
      cycles;
  stats().backoff_cycles += cycles;
}

void Context::tx_account_start() {
  tx_start_clock_ = now();
}

void Context::tx_account_end(bool committed, AbortCause cause,
                             std::uint32_t read_lines,
                             std::uint32_t write_lines) {
  const Cycles spent = now() - tx_start_clock_;
  if (committed) {
    stats().tx_cycles_committed += spent;
  } else {
    stats().tx_cycles_wasted += spent;
  }
  // Flush cycles accumulated while the outcome was unknown into the bucket
  // the outcome selects. tx_pending_ equals `spent` because nothing but this
  // thread's own charged advances can move its clock inside a transaction.
  stats().cycles_by_bucket[static_cast<std::size_t>(
      committed ? CycleBucket::kTxCommitted : CycleBucket::kTxWasted)] +=
      tx_pending_;
  tx_pending_ = 0;
  if (Telemetry* tel = m_.telemetry()) {
    tel->on_txn(tid_, tx_start_clock_, now(), committed, cause, read_lines,
                write_lines);
  }
}

void Context::abort_tx(AbortCause cause, std::uint8_t code) {
  const TxState& st = m_.mem().tx_state(tid_);
  const auto r = static_cast<std::uint32_t>(st.read_lines.size());
  const auto w = static_cast<std::uint32_t>(st.write_lines.size());
  m_.mem().tx_rollback(tid_, cause);
  tx_account_end(false, cause, r, w);
  m_.engine()->advance(tid_, m_.config().lat_abort);
  charge(m_.config().lat_abort, CycleBucket::kTxWasted);
  throw TxAbort{cause, code};
}

void Context::check_doom() {
  MemorySystem& mem = m_.mem();
  if (!mem.in_tx(tid_) || !mem.doomed(tid_)) return;
  abort_tx(mem.tx_state(tid_).doom_cause);
}

std::uint64_t Context::load(Addr a, unsigned size) {
  check_doom();
  AccessResult r = m_.mem().load(tid_, a, size);
  m_.engine()->advance(tid_, r.latency);
  charge_mem(r.latency, r.level);
  return r.value;
}

void Context::store(Addr a, std::uint64_t v, unsigned size) {
  check_doom();
  AccessResult r = m_.mem().store(tid_, a, v, size);
  m_.engine()->advance(tid_, r.latency);
  charge_mem(r.latency, r.level);
}

std::uint64_t Context::fetch_add(Addr a, std::int64_t delta, unsigned size) {
  check_doom();
  AccessResult r = m_.mem().atomic_rmw(
      tid_, a, size, [delta](std::uint64_t old) {
        return old + static_cast<std::uint64_t>(delta);
      });
  m_.engine()->advance(tid_, r.latency);
  charge_mem(r.latency, r.level);
  return r.value;
}

bool Context::cas(Addr a, std::uint64_t expected, std::uint64_t desired,
                  unsigned size) {
  check_doom();
  bool ok = false;
  AccessResult r = m_.mem().atomic_rmw(
      tid_, a, size, [&](std::uint64_t old) {
        ok = old == expected;
        return ok ? desired : old;
      });
  m_.engine()->advance(tid_, r.latency);
  charge_mem(r.latency, r.level);
  return ok;
}

std::uint64_t Context::exchange(Addr a, std::uint64_t v, unsigned size) {
  check_doom();
  AccessResult r =
      m_.mem().atomic_rmw(tid_, a, size, [v](std::uint64_t) { return v; });
  m_.engine()->advance(tid_, r.latency);
  charge_mem(r.latency, r.level);
  return r.value;
}

std::uint64_t Context::fetch_or(Addr a, std::uint64_t bits, unsigned size) {
  check_doom();
  AccessResult r = m_.mem().atomic_rmw(
      tid_, a, size, [bits](std::uint64_t old) { return old | bits; });
  m_.engine()->advance(tid_, r.latency);
  charge_mem(r.latency, r.level);
  return r.value;
}

void Context::load_bytes(Addr a, void* dst, std::size_t n) {
  check_doom();
  if ((a & 7) != 0 || (n & 7) != 0) {
    throw SimError("load_bytes requires 8-byte alignment");
  }
  auto* out = static_cast<std::uint8_t*>(dst);
  if (m_.mem().in_tx(tid_)) {
    // Word loop: must observe our own speculative buffer.
    for (std::size_t off = 0; off < n; off += 8) {
      AccessResult r = m_.mem().load(tid_, a + off, 8);
      m_.engine()->advance(tid_, r.latency);
      charge_mem(r.latency, r.level);
      std::memcpy(out + off, &r.value, 8);
    }
    return;
  }
  // Non-transactional: one timed access per line, bulk value copy.
  const Cycles line = m_.config().line_bytes;
  for (Addr p = a & ~static_cast<Addr>(line - 1); p < a + n; p += line) {
    AccessResult r = m_.mem().load(tid_, p >= a ? p : a, 8);
    m_.engine()->advance(tid_, r.latency);
    charge_mem(r.latency, r.level);
  }
  m_.heap().read_bytes(a, out, n);
}

void Context::store_bytes(Addr a, const void* src, std::size_t n) {
  check_doom();
  if ((a & 7) != 0 || (n & 7) != 0) {
    throw SimError("store_bytes requires 8-byte alignment");
  }
  const auto* in = static_cast<const std::uint8_t*>(src);
  if (m_.mem().in_tx(tid_)) {
    for (std::size_t off = 0; off < n; off += 8) {
      std::uint64_t v;
      std::memcpy(&v, in + off, 8);
      AccessResult r = m_.mem().store(tid_, a + off, v, 8);
      m_.engine()->advance(tid_, r.latency);
      charge_mem(r.latency, r.level);
    }
    return;
  }
  const Cycles line = m_.config().line_bytes;
  for (Addr p = a & ~static_cast<Addr>(line - 1); p < a + n; p += line) {
    Addr at = p >= a ? p : a;
    std::uint64_t v;
    std::memcpy(&v, in + (at - a), 8);
    AccessResult r = m_.mem().store(tid_, at, v, 8);
    m_.engine()->advance(tid_, r.latency);
    charge_mem(r.latency, r.level);
  }
  m_.heap().write_bytes(a, in, n);
}

void Context::xbegin() {
  check_doom();
  const bool outer = !m_.mem().in_tx(tid_);
  m_.mem().tx_begin(tid_);
  if (outer) tx_account_start();
  if (m_.mem().doomed(tid_)) {
    // Nesting-depth overflow detected at begin.
    abort_tx(m_.mem().tx_state(tid_).doom_cause);
  }
  m_.engine()->advance(tid_, m_.config().lat_xbegin);
  charge(m_.config().lat_xbegin, CycleBucket::kWork);  // in-tx: pends
}

void Context::xend() {
  check_doom();
  const TxState& st = m_.mem().tx_state(tid_);
  const auto r = static_cast<std::uint32_t>(st.read_lines.size());
  const auto w = static_cast<std::uint32_t>(st.write_lines.size());
  m_.mem().tx_end(tid_);
  if (!m_.mem().in_tx(tid_)) {
    tx_account_end(true, AbortCause::kNone, r, w);
  }
  m_.engine()->advance(tid_, m_.config().lat_xend);
  // Outer commit lands in kTxCommitted; a nested XEND is still in-tx and
  // pends with the rest of the transaction.
  charge(m_.config().lat_xend, CycleBucket::kTxCommitted);
}

void Context::xabort(std::uint8_t code) {
  if (!m_.mem().in_tx(tid_)) {
    // Architecturally XABORT outside a transaction is a no-op, but in this
    // codebase it is always a bug; fail loudly.
    throw SimError("XABORT outside a transaction");
  }
  abort_tx(AbortCause::kExplicit, code);
}

bool Context::in_txn() const { return m_.mem().in_tx(tid_); }

void Context::syscall(Cycles extra_cost) {
  check_doom();
  if (m_.mem().in_tx(tid_)) abort_tx(AbortCause::kSyscall);
  stats().syscalls++;
  m_.engine()->advance(tid_, m_.config().lat_syscall + extra_cost);
  charge(m_.config().lat_syscall + extra_cost, CycleBucket::kWork);
}

void Context::futex_wait(Addr addr, std::uint32_t expected) {
  check_doom();
  if (m_.mem().in_tx(tid_)) {
    throw SimError("futex_wait inside a transaction");
  }
  stats().syscalls++;
  stats().futex_waits++;
  m_.engine()->advance(tid_, m_.config().lat_syscall);
  charge(m_.config().lat_syscall, CycleBucket::kLockWait);
  // Atomic check-and-enqueue: we hold the scheduler token throughout.
  const std::uint32_t v =
      static_cast<std::uint32_t>(m_.heap().read_word(addr, 4));
  if (v != expected) return;  // EAGAIN
  // The value check, enqueue and block must be atomic: no engine call (and
  // hence no token handoff) may occur between them, or a concurrent wake
  // could be lost. Descheduling costs are charged after we are woken.
  m_.futex().enqueue(addr, tid_);
  const Cycles blocked_at = now();
  m_.engine()->block(tid_);
  // wake() jumped our clock to the waker's; that interval is lock-wait too.
  charge(now() - blocked_at, CycleBucket::kLockWait);
  m_.engine()->advance(tid_, m_.config().lat_block + m_.config().lat_wake);
  charge(m_.config().lat_block + m_.config().lat_wake,
         CycleBucket::kLockWait);
}

int Context::futex_wake(Addr addr, int count) {
  check_doom();
  if (m_.mem().in_tx(tid_)) abort_tx(AbortCause::kSyscall);
  stats().syscalls++;
  stats().futex_wakes++;
  m_.engine()->advance(tid_, m_.config().lat_syscall);
  charge(m_.config().lat_syscall, CycleBucket::kWork);
  Engine* e = m_.engine();
  const Cycles now = e->clock(tid_);
  return m_.futex().wake(addr, count,
                         [e, now](ThreadId t) { e->wake(t, now); });
}

}  // namespace tsxhpc::sim
