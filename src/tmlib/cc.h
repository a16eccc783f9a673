// The pluggable concurrency-control seam behind the TM macro layer —
// tmlib's analogue of the sync::TxPolicy seam: a per-run `CcBackend` keeps
// whatever shared state the scheme needs alive (the global lock, stripe
// tables, clocks, version chains) and vends one `CcThread` per simulated
// thread; the macro layer (`TmThread::atomic`, `TmAccess::read/write`)
// funnels every region and every annotated access through the handle's
// hooks.
//
// The contract every backend must honor:
//
//   * `execute` owns the whole region lifecycle — retry loop, backoff,
//     abort classification. The body may run multiple times; host side
//     effects inside it follow the same idempotence rules as
//     ElidedLock::critical. The STM schemes share one attempt loop, so a
//     per-region hook (a history recorder, say) has one place to go.
//   * `read`/`write` are the *annotated* accesses (STAMP's TM_SHARED_*).
//     The defaults are plain timed load/store — correct for any scheme
//     whose region is a real critical section (sgl, tsx).
//   * Virtual dispatch is host-side only: a hook implementation charges
//     exactly the simulated operations the scheme needs, so re-expressing
//     a scheme through the seam is bit-for-bit (for sgl/tl2/tsx the
//     committed baselines still pin the pre-seam telemetry exactly).
//   * `stats()` is the handle's one counter copy — for an STM scheme, the
//     descriptor's own; TmThread reports it to the runtime on destruction,
//     which merges it into the run's telemetry `cc` block.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/context.h"
#include "sim/telemetry.h"

namespace tsxhpc::sync {
class ElidedLock;
}
namespace tsxhpc::stm {
class Tl2Space;
}

namespace tsxhpc::tmlib {

using sim::Addr;
using sim::Context;
using sim::Machine;

/// The scheme axis (`--scheme=` on every bench that takes one).
enum class Backend { kSgl, kTl2, kTsx, kTicToc, kTicTocHybrid, kMvcc };

const char* to_string(Backend b);

/// All schemes, in CLI/display order.
const std::vector<Backend>& all_backends();

/// Parse a scheme name; returns false (out untouched) on an unknown name.
bool backend_from_name(const std::string& name, Backend* out);

/// True for the software-TM schemes: writes are buffered until commit, the
/// region body may re-execute, frees must defer to commit, and the arena
/// free list must not be recycled (per-stripe validation cannot see it).
inline bool is_stm(Backend b) {
  return b == Backend::kTl2 || b == Backend::kTicToc ||
         b == Backend::kTicTocHybrid || b == Backend::kMvcc;
}

/// Non-owning reference to a region body (the `atomic` lambda wrapped with
/// its TmAccess). A plain (object, fn) pair rather than std::function so
/// per-region host overhead stays two indirect calls, no allocation.
class RegionRef {
 public:
  template <typename F>
  static RegionRef of(F& f) {
    return RegionRef(&f, [](void* o) { (*static_cast<F*>(o))(); });
  }
  void operator()() const { fn_(obj_); }

 private:
  RegionRef(void* obj, void (*fn)(void*)) : obj_(obj), fn_(fn) {}
  void* obj_;
  void (*fn_)(void*);
};

/// Per-thread handle: the scheme's transaction descriptor plus its stats.
class CcThread {
 public:
  virtual ~CcThread() = default;

  /// Run one transactional region to completion (committed).
  virtual void execute(Context& c, RegionRef body) = 0;

  /// Annotated read/write. Defaults are plain timed accesses.
  virtual std::uint64_t read(Context& c, Addr a, unsigned size) {
    return c.load(a, size);
  }
  virtual void write(Context& c, Addr a, std::uint64_t v, unsigned size) {
    c.store(a, v, size);
  }

  /// True when writes are buffered until commit (STM schemes): TmAccess
  /// then defers frees via defer_to_commit and disables arena reuse.
  virtual bool buffers_writes() const { return false; }

  /// Register an action to run iff the current region commits. Only valid
  /// when buffers_writes() — direct schemes free inline instead.
  virtual void defer_to_commit(std::function<void(Context&)> /*action*/) {
    throw sim::SimError("defer_to_commit on a non-buffering CC backend");
  }

  /// The region counters, labelled with the scheme's to_string(Backend).
  virtual const sim::CcStats& stats() const = 0;
};

/// Per-run backend: each call vends one thread handle; the function keeps
/// the scheme's shared state alive.
using CcBackend = std::function<std::unique_ptr<CcThread>()>;

/// Build the backend for `b`. The sgl/tl2/tsx backends borrow the runtime's
/// pre-seam allocations (`global_lock`, `tl2_space`) so their heap layout —
/// and therefore their telemetry — is bit-for-bit the pre-seam layout; the
/// new schemes allocate their own spaces here, afterwards (appended
/// allocations do not disturb the historic `bump` layout).
CcBackend make_cc_backend(Machine& m, Backend b, sync::ElidedLock& global_lock,
                          stm::Tl2Space& tl2_space);

}  // namespace tsxhpc::tmlib
