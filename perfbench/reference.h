// A fixed reference kernel that calibrates host time against host noise.
//
// The host this benchmark runs on shares cores and caches with other
// tenants, and the simulator's speed swings by up to 2x with their load, in
// periods of seconds to minutes. The kernel below is code the simulator
// does not share: a miniature cache model and a table of 128 small
// functions, so it leans on the same host resources (L1/L2 footprint, hash
// maps, indirect calls, branch prediction) as the simulator's hot path, and
// slows with it. Running it just before each cell and scaling the cell's
// time by nominal / measured reference time converts host seconds into
// seconds of a quiet host.
//
// The kernel is part of the benchmark's definition: changing it, or
// kNominalSeconds, changes every calibrated number, so it stays fixed.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace tsxhpc::perfbench {

class Reference {
 public:
  /// Host seconds one run of the kernel takes on a quiet host, rounded: it
  /// ran in 4.5 to 5.5 ms on the tuning host (a 4-vCPU Intel Xeon VM at
  /// 2.1 GHz) outside its slow periods.
  static constexpr double kNominalSeconds = 5.0e-3;

  /// Run the kernel once; returns its host seconds.
  double run();

  /// Run the kernel and return the calibration factor for the work that
  /// follows: kNominalSeconds over the median of the last three runs (the
  /// median damps one-off jitter of a single run).
  double factor();

  /// Median host seconds of the last three runs (0 before any run).
  double recent_seconds() const;

  /// The kernel's working state: a miniature two-level cache model, an
  /// owner map and a 1 MB heap.
  struct Kernel {
    struct Line {
      std::uint64_t tag = 0;
      std::uint64_t lru = 0;
      bool valid = false;
    };
    Kernel();
    std::vector<std::vector<Line>> l1;  // 8 caches, 64 sets x 8 ways
    std::vector<Line> l2;               // 64 sets x 10 ways
    std::unordered_map<std::uint64_t, std::uint64_t> owners;
    std::vector<std::uint64_t> heap;
    std::uint64_t tick = 0;
  };

 private:
  Kernel kernel_;
  std::array<double, 3> last_{};
  int runs_ = 0;
};

}  // namespace tsxhpc::perfbench
