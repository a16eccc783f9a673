// Concrete CcBackend adapters. The sgl/tl2/tsx adapters re-express the
// pre-seam switch dispatch *exactly* — same simulated operations in the
// same order — so their telemetry is bit-for-bit the pre-seam output
// (the baselines in bench/baselines/ pin it byte-for-byte). The
// tictoc/tictoc-hybrid/mvcc adapters share the STM retry-loop shape
// (backoff 80 doubling to 4000, like tl2) so scheme comparisons measure
// the algorithms, not harness skew.

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

void bump_abort_class(sim::CcStats& s, stm::StmAbortKind kind) {
  switch (kind) {
    case stm::StmAbortKind::kReadValidation:
      s.aborts_read_validation++;
      break;
    case stm::StmAbortKind::kLockAcquire:
      s.aborts_lock_acquire++;
      break;
    case stm::StmAbortKind::kCommitValidation:
      s.aborts_commit_validation++;
      break;
  }
}

// ---- sgl: critical sections under the global lock ------------------------

class SglThread final : public CcThread {
 public:
  explicit SglThread(sync::ElidedLock& lock) : lock_(lock) {
    stats_.scheme = "sgl";
  }
  void execute(Context& c, RegionRef body) override {
    auto& lock = lock_.underlying();
    lock.acquire(c);
    body();
    lock.release(c);
    stats_.starts++;
    stats_.commits++;
  }

 private:
  sync::ElidedLock& lock_;
};

class SglBackend final : public CcBackend {
 public:
  explicit SglBackend(sync::ElidedLock& lock) : lock_(lock) {}
  const char* name() const override { return "sgl"; }
  std::unique_ptr<CcThread> attach() override {
    return std::make_unique<SglThread>(lock_);
  }

 private:
  sync::ElidedLock& lock_;
};

// ---- tsx: RTM elision of the same global lock ----------------------------
// Region-level accounting only: hardware retries live below this seam, in
// the telemetry attempt chains, so cc.aborts stays 0 (CI-enforced) and
// cc.commits reconciles against elided_commits + fallback_acquires.

class TsxThread final : public CcThread {
 public:
  explicit TsxThread(sync::ElidedLock& lock) : lock_(lock) {
    stats_.scheme = "tsx";
  }
  void execute(Context& c, RegionRef body) override {
    lock_.critical(c, [&] { body(); });
    stats_.starts++;
    stats_.commits++;
  }

 private:
  sync::ElidedLock& lock_;
};

class TsxBackend final : public CcBackend {
 public:
  explicit TsxBackend(sync::ElidedLock& lock) : lock_(lock) {}
  const char* name() const override { return "tsx"; }
  std::unique_ptr<CcThread> attach() override {
    return std::make_unique<TsxThread>(lock_);
  }

 private:
  sync::ElidedLock& lock_;
};

// ---- Shared STM retry-loop shape -----------------------------------------

constexpr sim::Cycles kStmBackoffStart = 80;
constexpr sim::Cycles kStmBackoffCap = 4000;

// ---- tl2 -----------------------------------------------------------------

class Tl2Thread final : public CcThread {
 public:
  explicit Tl2Thread(stm::Tl2Space& space) : tx_(space) {
    stats_.scheme = "tl2";
  }
  void execute(Context& c, RegionRef body) override {
    sim::Cycles backoff = kStmBackoffStart;
    for (;;) {
      tx_.begin(c);
      stats_.starts++;
      try {
        body();
        tx_.commit(c);
        stats_.commits++;
        return;
      } catch (const stm::StmAbort& a) {
        stats_.aborts++;
        bump_abort_class(stats_, a.kind);
        c.compute(backoff);
        if (backoff < kStmBackoffCap) backoff *= 2;
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

 private:
  stm::Tl2Tx tx_;
};

class Tl2Backend final : public CcBackend {
 public:
  explicit Tl2Backend(stm::Tl2Space& space) : space_(space) {}
  const char* name() const override { return "tl2"; }
  std::unique_ptr<CcThread> attach() override {
    return std::make_unique<Tl2Thread>(space_);
  }

 private:
  stm::Tl2Space& space_;
};

// ---- tictoc / tictoc-hybrid ----------------------------------------------

class TicTocThread final : public CcThread {
 public:
  TicTocThread(stm::TicTocSpace& space, stm::TicTocReadMode mode)
      : tx_(space), mode_(mode) {
    stats_.scheme = mode == stm::TicTocReadMode::kHybrid ? "tictoc-hybrid"
                                                         : "tictoc";
  }
  void execute(Context& c, RegionRef body) override {
    sim::Cycles backoff = kStmBackoffStart;
    // Hybrid: optimistic first attempt, no-wait locking reads on retries.
    stm::TicTocReadMode attempt_mode =
        mode_ == stm::TicTocReadMode::kHybrid ? stm::TicTocReadMode::kOcc
                                              : mode_;
    for (;;) {
      tx_.begin(c, attempt_mode);
      stats_.starts++;
      try {
        body();
        tx_.commit(c);
        stats_.commits++;
        sync_extras();
        return;
      } catch (const stm::StmAbort& a) {
        stats_.aborts++;
        bump_abort_class(stats_, a.kind);
        sync_extras();
        if (mode_ == stm::TicTocReadMode::kHybrid) {
          attempt_mode = stm::TicTocReadMode::kLock;
        }
        c.compute(backoff);
        if (backoff < kStmBackoffCap) backoff *= 2;
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

 private:
  void sync_extras() {
    stats_.read_set_extensions = tx_.read_set_extensions();
  }

  stm::TicTocTx tx_;
  stm::TicTocReadMode mode_;
};

class TicTocBackend final : public CcBackend {
 public:
  TicTocBackend(Machine& m, stm::TicTocReadMode mode)
      : space_(m), mode_(mode) {}
  const char* name() const override {
    return mode_ == stm::TicTocReadMode::kHybrid ? "tictoc-hybrid"
                                                 : "tictoc";
  }
  std::unique_ptr<CcThread> attach() override {
    return std::make_unique<TicTocThread>(space_, mode_);
  }

 private:
  stm::TicTocSpace space_;
  stm::TicTocReadMode mode_;
};

// ---- mvcc ----------------------------------------------------------------

class MvccThread final : public CcThread {
 public:
  explicit MvccThread(stm::MvccSpace& space) : tx_(space) {
    stats_.scheme = "mvcc";
  }
  void execute(Context& c, RegionRef body) override {
    sim::Cycles backoff = kStmBackoffStart;
    for (;;) {
      tx_.begin(c);
      stats_.starts++;
      try {
        body();
        tx_.commit(c);
        stats_.commits++;
        sync_extras();
        return;
      } catch (const stm::StmAbort& a) {
        stats_.aborts++;
        bump_abort_class(stats_, a.kind);
        sync_extras();
        c.compute(backoff);
        if (backoff < kStmBackoffCap) backoff *= 2;
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

 private:
  void sync_extras() {
    stats_.snapshot_commits = tx_.snapshot_commits();
    stats_.versions_created = tx_.versions_created();
    stats_.version_chain_hops = tx_.version_chain_hops();
    stats_.version_chain_depth_max = tx_.version_chain_depth_max();
    stats_.gc_runs = tx_.gc_runs();
    stats_.gc_reclaims = tx_.gc_reclaims();
  }

  stm::MvccTx tx_;
};

class MvccBackend final : public CcBackend {
 public:
  explicit MvccBackend(Machine& m) : space_(m) {}
  const char* name() const override { return "mvcc"; }
  std::unique_ptr<CcThread> attach() override {
    return std::make_unique<MvccThread>(space_);
  }

 private:
  stm::MvccSpace space_;
};

}  // namespace

std::unique_ptr<CcBackend> make_cc_backend(Machine& m, Backend b,
                                           sync::ElidedLock& global_lock,
                                           stm::Tl2Space& tl2_space) {
  switch (b) {
    case Backend::kSgl:
      return std::make_unique<SglBackend>(global_lock);
    case Backend::kTl2:
      return std::make_unique<Tl2Backend>(tl2_space);
    case Backend::kTsx:
      return std::make_unique<TsxBackend>(global_lock);
    case Backend::kTicToc:
      return std::make_unique<TicTocBackend>(m, stm::TicTocReadMode::kOcc);
    case Backend::kTicTocHybrid:
      return std::make_unique<TicTocBackend>(m,
                                             stm::TicTocReadMode::kHybrid);
    case Backend::kMvcc:
      return std::make_unique<MvccBackend>(m);
  }
  throw sim::SimError("unknown TM backend");
}

}  // namespace tsxhpc::tmlib
