// The TM macro layer used by the benchmark suites (Section 4): one region
// API, interchangeable concurrency-control backends behind the CcBackend
// seam (cc.h) —
//   sgl           : transactional regions become critical sections under one
//                   global lock (the paper's "sgl" series);
//   tl2           : regions run under the TL2 STM, tracking only annotated
//                   accesses (the "tl2" series);
//   tsx           : regions elide the same single global lock with RTM (the
//                   "tsx" series — the paper's approach);
//   tictoc        : TicToc timestamp-ordering OCC, optimistic reads with
//                   commit-time rts extension;
//   tictoc-hybrid : TicToc with optimistic first attempts and no-wait
//                   locking reads on retries;
//   mvcc          : multi-version CC — snapshot reads that never abort,
//                   validation-free read-only commits, epoch GC.
//
// Workload code is written once against TmAccess:
//   thread.atomic(c, [&](TmAccess& tm) {
//     auto v = tm.read(cell);           // annotated (CC-tracked) access
//     tm.write(cell, v + 1);
//     tm.ctx().load(other);             // unannotated access (plain)
//   });
#pragma once

#include <cstdint>
#include <memory>

#include "stm/tl2.h"
#include "sync/elision.h"
#include "sync/locks.h"
#include "tmlib/cc.h"

namespace tsxhpc::tmlib {

/// Shared, per-run TM state (one instance per Machine/workload run).
class TmRuntime {
 public:
  TmRuntime(Machine& m, Backend backend)
      : global_lock_(m),
        tl2_space_(m),
        machine_(&m),
        cc_(make_cc_backend(m, backend, global_lock_, tl2_space_)) {}

  /// A new handle on the run's scheme, for one simulated thread.
  std::unique_ptr<CcThread> attach() const { return cc_(); }

  /// Aggregated CC statistics, reported by TmThread on destruction
  /// (host-side state; simulated threads are token-serialized). Also
  /// forwarded into the open telemetry run's `cc` block, if any.
  void record_cc(const sim::CcStats& s) {
    cc_stats_.merge(s);
    if (auto* tel = machine_->telemetry()) tel->record_cc(s);
  }
  const sim::CcStats& cc_stats() const { return cc_stats_; }

 private:
  // Pre-seam allocation order (lock word, then TL2 clock + stripes) is load-
  // bearing: the committed baselines pin sgl/tl2/tsx results produced on
  // this heap layout. New backends allocate their spaces inside
  // make_cc_backend, *after*.
  sync::ElidedLock global_lock_;
  stm::Tl2Space tl2_space_;
  Machine* machine_;
  sim::CcStats cc_stats_;
  CcBackend cc_;
};

class TmAccess;

/// Per-thread TM handle; construct inside the thread body.
class TmThread {
 public:
  TmThread(TmRuntime& rt, Context& c)
      : rt_(rt), c_(c), cc_(rt.attach()) {}

  ~TmThread() { rt_.record_cc(cc_->stats()); }

  TmThread(const TmThread&) = delete;
  TmThread& operator=(const TmThread&) = delete;

  /// Execute `f(TmAccess&)` as one transactional region. Under the STM and
  /// tsx backends the body may re-execute after aborts; host side effects
  /// must follow the same idempotence rules as ElidedLock::critical.
  template <typename F>
  void atomic(F&& f);

 private:
  friend class TmAccess;
  TmRuntime& rt_;
  Context& c_;
  std::unique_ptr<CcThread> cc_;
};

/// Access handle passed to a region body. read()/write() are the *annotated*
/// accesses (STAMP's TM_SHARED_READ/TM_SHARED_WRITE): instrumented under the
/// STM backends, plain (but transactional at cache-line level) under tsx,
/// plain under sgl. Unannotated accesses go through ctx() directly.
class TmAccess {
 public:
  std::uint64_t read(Addr a, unsigned size = 8) {
    return cc_->read(c_, a, size);
  }

  void write(Addr a, std::uint64_t v, unsigned size = 8) {
    cc_->write(c_, a, v, size);
  }

  // Typed convenience over Shared<T>.
  template <typename T>
  T read(sim::Shared<T> s) {
    return sim::detail::decode<T>(read(s.addr(), sizeof(T)));
  }
  template <typename T>
  void write(sim::Shared<T> s, T v) {
    write(s.addr(), sim::detail::encode(v), sizeof(T));
  }

  // Transaction-aware allocation (STAMP's TM_MALLOC / TM_FREE). ArenaT is
  // any allocator with alloc(Context&, size, reuse) and free(Context&,
  // addr, size) — in practice containers::TxArena.
  //
  // Under the write-buffering (STM) backends, frees are deferred to commit
  // (an abort must resurrect the block) and the free list is never reused
  // (recycling writes memory that per-stripe validation cannot see; real
  // TL2 allocators use quiescence). Under tsx the arena defers by itself
  // via Context::in_txn().
  template <typename ArenaT>
  Addr alloc(ArenaT& arena, std::size_t bytes) {
    return arena.alloc(c_, bytes, /*reuse=*/!cc_->buffers_writes());
  }

  template <typename ArenaT>
  void free(ArenaT& arena, Addr a, std::size_t bytes) {
    if (cc_->buffers_writes()) {
      cc_->defer_to_commit([&arena, a, bytes](Context& c) {
        arena.free(c, a, bytes);
      });
      c_.compute(10);
    } else {
      arena.free(c_, a, bytes);
    }
  }

  Context& ctx() { return c_; }

 private:
  friend class TmThread;
  TmAccess(TmThread& t) : c_(t.c_), cc_(t.cc_.get()) {}
  Context& c_;
  CcThread* cc_;
};

template <typename F>
void TmThread::atomic(F&& f) {
  TmAccess access(*this);
  auto body = [&] { f(access); };
  cc_->execute(c_, RegionRef::of(body));
}

}  // namespace tsxhpc::tmlib
