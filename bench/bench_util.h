// Shared helpers for the figure/table reproduction harnesses: fixed-width
// table printing in the style of the paper's figures, the declarative
// bench::Args command line (bench/args.h), and the BenchIo telemetry
// plumbing behind the shared --json=<path> / --trace=<path> flags.
#pragma once

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/args.h"
#include "sim/config.h"
#include "sim/json_parse.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "sim/telemetry.h"

namespace tsxhpc::bench {

/// Shared bench I/O: declares the flags every bench supports (--quick,
/// --report, --json=, --trace=, --backend=, --policy=), owns the Telemetry
/// collector, and writes the artifacts at exit. Bench-specific flags are declared on
/// args() between construction and parse().
///
///   int main(int argc, char** argv) {
///     bench::BenchIo io(argc, argv, "fig2_stamp", "STAMP scaling (Fig 2)");
///     int threads = 0;
///     io.args().add_int("threads", "run only this count (0 = sweep)",
///                       &threads);
///     if (!io.parse()) return io.exit_code();
///     Config cfg;
///     io.apply(cfg.machine);   // telemetry sink + --backend choice
///     ...
///     run_vacation(cfg);       // cfg.run_label names the recorded runs
///     return io.finish();
///   }
///
/// telemetry() is null when none of the artifact flags was given, so the
/// detached path stays zero-cost. --trace additionally enables per-attempt
/// collection (rings bounded by TelemetryOptions defaults). --report prints
/// the tsx_report summary inline after the run — same renderer, same
/// numbers as `tsx_report <artifact>`.
class BenchIo {
 public:
  BenchIo(int argc, char** argv, std::string bench_name, std::string summary)
      : bench_name_(std::move(bench_name)),
        argc_(argc),
        argv_(argv),
        args_(bench_name_, std::move(summary)) {
    args_.add_bool("quick", "reduced problem sizes (CI smoke runs)", &quick_);
    args_.add_bool("report", "print the tsx_report summary after the run",
                   &report_);
    args_.add_string("json", "write the telemetry artifact to this path",
                     &json_path_);
    args_.add_string("trace",
                     "write a Chrome trace to this path (enables "
                     "per-attempt collection)",
                     &trace_path_);
    args_.add_choice("backend",
                     "execution backend (default: fiber, or $TSXHPC_BACKEND)",
                     &backend_name_, {"fiber", "thread"});
    args_.add_choice("policy",
                     "elision retry/backoff/fallback policy (default: paper)",
                     &policy_name_,
                     {"paper", "no-hint", "expo-backoff", "adaptive-site"});
    args_.add_choice("alloc",
                     "named-allocation placement strategy (default: bump)",
                     &alloc_name_,
                     {"bump", "slab", "color", "adversarial"});
    args_.add_int("sockets",
                  "number of sockets (NUMA domains; threads map onto them "
                  "per --map=, DRAM is homed per socket; 0 = model default)",
                  &sockets_);
    args_.add_int("slices",
                  "LLC slices across the machine, a positive multiple of the "
                  "socket count; lines hash to an owning slice "
                  "(0 = model default)",
                  &slices_);
    args_.add_choice("map",
                     "thread/data mapping policy (default: compact)",
                     &map_name_, {"compact", "scatter", "sharing-aware"});
    args_.add_bool("cli-markdown",
                   "print the flag table as markdown and exit (the "
                   "EXPERIMENTS.md CLI reference is generated from this)",
                   &cli_markdown_);
    args_.add_size("l1-bytes",
                   "L1 data cache bytes per core (0 = model default)",
                   &l1_bytes_);
    args_.add_size("l1-ways", "L1 associativity (0 = model default)",
                   &l1_ways_);
    args_.add_size("llc-bytes",
                   "shared LLC bytes (0 = model default; read-set capacity "
                   "aborts track this)",
                   &llc_bytes_);
    args_.add_size("llc-ways", "LLC associativity (0 = model default)",
                   &llc_ways_);
    args_.add_bool("set-stats",
                   "record per-cache-set counters (telemetry v6 set_stats "
                   "block: fills, evictions, back-invalidations, capacity "
                   "dooms per set)",
                   &set_stats_);
    args_.add_size("sample-interval",
                   "initial virtual-time sampling interval in cycles "
                   "(0 = telemetry default)",
                   &sample_interval_);
    args_.add_size("max-samples",
                   "interval-series bucket cap before merge-and-double "
                   "(0 = telemetry default)",
                   &max_samples_);
  }

  /// The underlying parser, for bench-specific flag declarations.
  Args& args() { return args_; }

  /// --threads for the benches that scale over 1/2/4/8 threads: 0 runs all
  /// four, any other value outside the set is a usage error.
  void add_scaling_threads(int* out) {
    args_.add_int("threads", "run only this thread count (0 = 1/2/4/8)", out,
                  {0, 1, 2, 4, 8});
  }

  /// Parse the command line; false means exit with exit_code() (help was
  /// printed, or a usage error was reported).
  bool parse() {
    if (!args_.parse(argc_, argv_)) return false;
    if (cli_markdown_) {
      std::printf("### `%s`\n\n%s", bench_name_.c_str(),
                  args_.markdown().c_str());
      return false;  // exit_code() == 0
    }
    if (!backend_name_.empty() &&
        !sim::backend_from_string(backend_name_, backend_)) {
      args_.fail("bad value for '--backend': '" + backend_name_ +
                 "' (expected fiber or thread)");
      return false;
    }
    if (!policy_name_.empty() &&
        !sim::tx_policy_from_string(policy_name_, tx_policy_)) {
      args_.fail("bad value for '--policy': '" + policy_name_ +
                 "' (expected paper, no-hint, expo-backoff or "
                 "adaptive-site)");
      return false;
    }
    if (!alloc_name_.empty() &&
        !sim::alloc_strategy_from_string(alloc_name_, alloc_strategy_)) {
      args_.fail("bad value for '--alloc': '" + alloc_name_ +
                 "' (expected bump, slab, color or adversarial)");
      return false;
    }
    if (!map_name_.empty() && !sim::map_policy_from_string(map_name_, map_)) {
      args_.fail("bad value for '--map': '" + map_name_ +
                 "' (expected compact, scatter or sharing-aware)");
      return false;
    }
    if (sockets_ < 0 || slices_ < 0) {
      args_.fail("--sockets and --slices must be non-negative");
      return false;
    }
    if (!check_machine_flags()) return false;
    if (report_ || !json_path_.empty() || !trace_path_.empty()) {
      sim::TelemetryOptions opt;
      opt.collect_attempts = !trace_path_.empty();
      if (sample_interval_ != 0) {
        opt.sample_interval = static_cast<sim::Cycles>(sample_interval_);
      }
      if (max_samples_ != 0) opt.max_samples = max_samples_;
      telemetry_ = std::make_unique<sim::Telemetry>(opt);
    }
    return true;
  }

  int exit_code() const { return args_.exit_code(); }

  /// Wire this bench's choices into a machine config: telemetry sink, the
  /// --backend selection, and any cache-geometry overrides. Call once per
  /// MachineConfig the bench builds.
  void apply(sim::MachineConfig& mc) {
    mc.telemetry = telemetry_.get();
    mc.backend = backend_;
    mc.tx_policy = tx_policy_;
    mc.alloc_strategy = alloc_strategy_;
    apply_cache_geometry(mc);
    mc.set_stats = set_stats_;
    if (sockets_ != 0) mc.topology.num_sockets = sockets_;
    if (slices_ != 0) mc.topology.llc_slices = slices_;
    if (!map_name_.empty()) mc.topology.map = map_;
  }

  bool quick() const { return quick_; }
  sim::BackendKind backend() const { return backend_; }
  sim::TxPolicyKind tx_policy() const { return tx_policy_; }
  /// Raw --policy= spelling; empty when the flag was not given. Benches that
  /// sweep policies internally use this to honor an explicit restriction
  /// (the sweep orchestrator pins one policy per grid cell this way).
  const std::string& policy_name() const { return policy_name_; }
  sim::AllocStrategyKind alloc_strategy() const { return alloc_strategy_; }
  /// Raw --alloc= spelling; empty when the flag was not given. Like
  /// policy_name(), benches that sweep strategies internally use this to
  /// honor an explicit restriction (one strategy per sweep grid cell).
  const std::string& alloc_name() const { return alloc_name_; }
  const std::string& bench_name() const { return bench_name_; }
  /// Topology overrides; 0 / empty mean "flag not given" (model default).
  int sockets() const { return sockets_; }
  int slices() const { return slices_; }
  sim::MapPolicy map() const { return map_; }
  /// Raw --map= spelling; empty when the flag was not given. Benches that
  /// sweep mappings internally use this to honor an explicit restriction
  /// (one mapping per sweep grid cell).
  const std::string& map_name() const { return map_name_; }

  /// Null unless --json or --trace was given. Assign to
  /// MachineConfig::telemetry (or pass to Machine::set_telemetry).
  sim::Telemetry* telemetry() { return telemetry_.get(); }

  /// Write the requested artifacts; returns a process exit code (non-zero
  /// if a file could not be written).
  int finish() {
    int rc = 0;
    if (telemetry_ && report_) {
      // Serialize and re-parse so the inline summary goes through the exact
      // code path tsx_report uses on the artifact file.
      std::string err;
      const sim::JsonValue doc =
          sim::JsonParser::parse(telemetry_->json(bench_name_), &err);
      if (err.empty()) {
        std::fputs(sim::render_report(doc).c_str(), stdout);
      } else {
        std::fprintf(stderr, "telemetry: --report parse error: %s\n",
                     err.c_str());
        rc = 1;
      }
    }
    if (telemetry_ && !json_path_.empty()) {
      if (telemetry_->write_json(json_path_, bench_name_)) {
        std::printf("telemetry: wrote %s\n", json_path_.c_str());
      } else {
        std::fprintf(stderr, "telemetry: cannot write %s\n",
                     json_path_.c_str());
        rc = 1;
      }
    }
    if (telemetry_ && !trace_path_.empty()) {
      if (telemetry_->write_chrome_trace(trace_path_)) {
        std::printf("telemetry: wrote %s (open in Perfetto / chrome://tracing)\n",
                    trace_path_.c_str());
      } else {
        std::fprintf(stderr, "telemetry: cannot write %s\n",
                     trace_path_.c_str());
        rc = 1;
      }
    }
    return rc;
  }

 private:
  void apply_cache_geometry(sim::MachineConfig& mc) const {
    if (l1_bytes_ != 0) mc.l1_bytes = static_cast<std::uint32_t>(l1_bytes_);
    if (l1_ways_ != 0) mc.l1_ways = static_cast<std::uint32_t>(l1_ways_);
    if (llc_bytes_ != 0) mc.llc_bytes = static_cast<std::uint32_t>(llc_bytes_);
    if (llc_ways_ != 0) mc.llc_ways = static_cast<std::uint32_t>(llc_ways_);
  }

  /// Build a default machine with the cache-geometry flags applied so that
  /// an invalid shape (e.g. --llc-ways=3 leaves a set count that is not a
  /// power of two) is a usage error naming the problem, not a SimError
  /// escaping main mid-run. Topology stays at the model default: core and
  /// socket counts are bench-specific, so each bench checks its own.
  bool check_machine_flags() {
    if (l1_bytes_ == 0 && l1_ways_ == 0 && llc_bytes_ == 0 && llc_ways_ == 0) {
      return true;
    }
    for (std::size_t v : {l1_bytes_, l1_ways_, llc_bytes_, llc_ways_}) {
      if (v > std::numeric_limits<std::uint32_t>::max()) {
        args_.fail("cache geometry flags must fit in 32 bits");
        return false;
      }
    }
    sim::MachineConfig probe;
    apply_cache_geometry(probe);
    try {
      sim::Machine m(probe);
    } catch (const sim::SimError& e) {
      args_.fail(e.what());
      return false;
    }
    return true;
  }

  std::string bench_name_;
  int argc_;
  char** argv_;
  Args args_;
  bool quick_ = false;
  bool report_ = false;
  bool cli_markdown_ = false;
  std::string json_path_;
  std::string trace_path_;
  std::string backend_name_;
  std::string policy_name_;
  std::string alloc_name_;
  std::string map_name_;
  int sockets_ = 0;
  int slices_ = 0;
  sim::MapPolicy map_ = sim::MapPolicy::kCompact;
  std::size_t l1_bytes_ = 0;
  std::size_t l1_ways_ = 0;
  std::size_t llc_bytes_ = 0;
  std::size_t llc_ways_ = 0;
  bool set_stats_ = false;
  std::size_t sample_interval_ = 0;
  std::size_t max_samples_ = 0;
  sim::BackendKind backend_ = sim::default_backend();
  sim::TxPolicyKind tx_policy_ = sim::TxPolicyKind::kPaper;
  sim::AllocStrategyKind alloc_strategy_ = sim::AllocStrategyKind::kBump;
  std::unique_ptr<sim::Telemetry> telemetry_;
};

/// Column-aligned table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      width[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size() && i < width.size(); ++i) {
        if (row[i].size() > width[i]) width[i] = row[i].size();
      }
    }
    print_row(headers_, width);
    std::string rule;
    for (std::size_t i = 0; i < width.size(); ++i) {
      rule += std::string(width[i], '-');
      if (i + 1 < width.size()) rule += "-+-";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row, width);
  }

 private:
  static void print_row(const std::vector<std::string>& cells,
                        const std::vector<std::size_t>& width) {
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : "";
      std::printf("%-*s", static_cast<int>(width[i]), cell.c_str());
      if (i + 1 < width.size()) std::printf(" | ");
    }
    std::printf("\n");
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

}  // namespace tsxhpc::bench
