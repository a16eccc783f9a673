// Concrete CcThread handles. The sgl/tsx handles and the tl2 descriptor
// re-express the pre-seam switch dispatch *exactly* — same simulated
// operations in the same order — so their telemetry is bit-for-bit the
// pre-seam output (the baselines in bench/baselines/ pin it byte-for-byte).
// All four STM schemes share the STM retry-loop shape — one attempt loop,
// StmThread, templated over the descriptor (backoff 80 doubling to 4000) —
// so scheme comparisons measure the algorithms, not harness skew.

#include "tmlib/tm.h"

#include <memory>
#include <utility>

#include "stm/mvcc.h"
#include "stm/tictoc.h"

namespace tsxhpc::tmlib {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kSgl: return "sgl";
    case Backend::kTl2: return "tl2";
    case Backend::kTsx: return "tsx";
    case Backend::kTicToc: return "tictoc";
    case Backend::kTicTocHybrid: return "tictoc-hybrid";
    case Backend::kMvcc: return "mvcc";
  }
  return "?";
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {
      Backend::kSgl,    Backend::kTl2,          Backend::kTsx,
      Backend::kTicToc, Backend::kTicTocHybrid, Backend::kMvcc,
  };
  return kAll;
}

bool backend_from_name(const std::string& name, Backend* out) {
  for (Backend b : all_backends()) {
    if (name == to_string(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

namespace {

// ---- sgl / tsx: the region is a real critical section -------------------
// Region-level accounting only: under tsx, hardware retries live below this
// seam, in the telemetry attempt chains, so cc.aborts stays 0 and cc.commits
// reconciles against elided_commits + fallback_acquires (both are cc rules
// in sim/invariants.h).

class LockThread : public CcThread {
 public:
  LockThread(sync::ElidedLock& lock, const char* scheme) : lock_(lock) {
    stats_.scheme = scheme;
  }
  const sim::CcStats& stats() const final { return stats_; }

 protected:
  void count_region() {
    stats_.starts++;
    stats_.commits++;
  }

  sync::ElidedLock& lock_;

 private:
  sim::CcStats stats_;
};

class SglThread final : public LockThread {
 public:
  using LockThread::LockThread;
  void execute(Context& c, RegionRef body) override {
    auto& lock = lock_.underlying();
    lock.acquire(c);
    body();
    lock.release(c);
    count_region();
  }
};

class TsxThread final : public LockThread {
 public:
  using LockThread::LockThread;
  void execute(Context& c, RegionRef body) override {
    lock_.critical(c, [&] { body(); });
    count_region();
  }
};

// ---- tl2 / tictoc / tictoc-hybrid / mvcc: the one STM attempt loop -------
// The descriptor counts starts, commits and abort classes itself; the loop
// only retries, with backoff from 80 cycles doubling up to 4000.

template <typename Tx>
class StmThread final : public CcThread {
 public:
  template <typename... Args>
  explicit StmThread(Args&&... args) : tx_(std::forward<Args>(args)...) {}

  void execute(Context& c, RegionRef body) override {
    sim::Cycles backoff = 80;
    for (;;) {
      tx_.begin(c);
      try {
        body();
        tx_.commit(c);
        return;
      } catch (const stm::StmAbort&) {
        c.compute(backoff);
        if (backoff < 4000) backoff *= 2;
      }
    }
  }
  std::uint64_t read(Context& c, Addr a, unsigned size) override {
    return tx_.read(c, a, size);
  }
  void write(Context& c, Addr a, std::uint64_t v, unsigned size) override {
    tx_.write(c, a, v, size);
  }
  bool buffers_writes() const override { return true; }
  void defer_to_commit(std::function<void(Context&)> action) override {
    tx_.on_commit(std::move(action));
  }
  const sim::CcStats& stats() const override { return tx_.stats(); }

 private:
  Tx tx_;
};

}  // namespace

CcBackend make_cc_backend(Machine& m, Backend b, sync::ElidedLock& global_lock,
                          stm::Tl2Space& tl2_space) {
  const char* scheme = to_string(b);
  switch (b) {
    case Backend::kSgl:
      return [lock = &global_lock, scheme] {
        return std::make_unique<SglThread>(*lock, scheme);
      };
    case Backend::kTsx:
      return [lock = &global_lock, scheme] {
        return std::make_unique<TsxThread>(*lock, scheme);
      };
    case Backend::kTl2:
      return [space = &tl2_space, scheme] {
        return std::make_unique<StmThread<stm::Tl2Tx>>(*space, scheme);
      };
    case Backend::kTicToc:
    case Backend::kTicTocHybrid: {
      auto space = std::make_shared<stm::TicTocSpace>(m);
      const auto mode = b == Backend::kTicToc ? stm::TicTocReadMode::kOcc
                                              : stm::TicTocReadMode::kHybrid;
      return [space, mode, scheme] {
        return std::make_unique<StmThread<stm::TicTocTx>>(*space, mode, scheme);
      };
    }
    case Backend::kMvcc: {
      auto space = std::make_shared<stm::MvccSpace>(m);
      return [space, scheme] {
        return std::make_unique<StmThread<stm::MvccTx>>(*space, scheme);
      };
    }
  }
  throw sim::SimError("unknown TM backend");
}

}  // namespace tsxhpc::tmlib
