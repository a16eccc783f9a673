// Domain example: run any STAMP workload under any TM backend from the
// command line and print its timing and abort statistics — a miniature of
// the Figure 2 / Table 1 harness for interactive exploration.
//
//   $ ./build/examples/stamp_runner vacation tsx 8
//   $ ./build/examples/stamp_runner labyrinth tl2 4
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "stamp/stamp.h"

using namespace tsxhpc;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "vacation";
  const char* backend_name = argc > 2 ? argv[2] : "tsx";
  const int threads = argc > 3 ? std::atoi(argv[3]) : 4;

  tmlib::Backend backend;
  if (std::strcmp(backend_name, "sgl") == 0) {
    backend = tmlib::Backend::kSgl;
  } else if (std::strcmp(backend_name, "tl2") == 0) {
    backend = tmlib::Backend::kTl2;
  } else if (std::strcmp(backend_name, "tsx") == 0) {
    backend = tmlib::Backend::kTsx;
  } else if (std::strcmp(backend_name, "tictoc") == 0) {
    backend = tmlib::Backend::kTicToc;
  } else if (std::strcmp(backend_name, "tictoc-hybrid") == 0) {
    backend = tmlib::Backend::kTicTocHybrid;
  } else if (std::strcmp(backend_name, "mvcc") == 0) {
    backend = tmlib::Backend::kMvcc;
  } else {
    std::fprintf(stderr,
                 "unknown backend '%s' (sgl | tl2 | tsx | tictoc | "
                 "tictoc-hybrid | mvcc)\n",
                 backend_name);
    return 1;
  }

  const stamp::Workload* workload = nullptr;
  for (const auto& w : stamp::all_workloads()) {
    if (w.name == name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; available:", name);
    for (const auto& w : stamp::all_workloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }

  stamp::Config cfg;
  cfg.backend = backend;
  cfg.threads = threads;
  const stamp::Result r = workload->fn(cfg);

  std::printf("%s / %s / %d threads\n", name, backend_name, threads);
  std::printf("  makespan      : %llu simulated cycles\n",
              static_cast<unsigned long long>(r.makespan));
  std::printf("  verification  : %s\n",
              r.checksum != 0 ? "OK" : "FAILED (invariant broken!)");
  if (tmlib::is_stm(backend)) {
    std::printf("  %s txns : %llu started, %llu aborted (%.1f%%)\n",
                backend_name, static_cast<unsigned long long>(r.cc.starts),
                static_cast<unsigned long long>(r.cc.aborts),
                r.abort_rate_pct(backend));
    if (backend == tmlib::Backend::kMvcc) {
      std::printf("  mvcc          : %llu snapshot commits, %llu versions, "
                  "%llu gc reclaims\n",
                  static_cast<unsigned long long>(r.cc.snapshot_commits),
                  static_cast<unsigned long long>(r.cc.versions_created),
                  static_cast<unsigned long long>(r.cc.gc_reclaims));
    }
  } else if (backend == tmlib::Backend::kTsx) {
    const auto t = r.stats.total();
    std::printf("  hw txns       : %llu started, %llu aborted (%.1f%%)\n",
                static_cast<unsigned long long>(t.tx_started),
                static_cast<unsigned long long>(t.tx_aborts_total()),
                r.abort_rate_pct(backend));
    std::printf("  abort causes  : %llu conflict, %llu capacity, %llu "
                "explicit, %llu syscall\n",
                static_cast<unsigned long long>(
                    t.tx_aborted[size_t(sim::AbortCause::kConflict)]),
                static_cast<unsigned long long>(
                    t.tx_aborted[size_t(sim::AbortCause::kCapacityWrite)]),
                static_cast<unsigned long long>(
                    t.tx_aborted[size_t(sim::AbortCause::kExplicit)]),
                static_cast<unsigned long long>(
                    t.tx_aborted[size_t(sim::AbortCause::kSyscall)]));
  }
  return r.checksum != 0 ? 0 : 2;
}
