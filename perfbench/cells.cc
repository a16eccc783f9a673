#include "perfbench/cells.h"

#include "apps/apps.h"
#include "sim/machine.h"
#include "stamp/stamp.h"

namespace tsxhpc::perfbench {

const char* CellResult::field_name(std::size_t f) {
  static const char* const kNames[kNumFields] = {
      "makespan",        "mem_accesses",        "tx_started",
      "tx_committed",    "abort_conflict",      "abort_capacity_write",
      "abort_explicit",  "abort_syscall",       "abort_nesting",
      "abort_lock_busy", "abort_capacity_read", "checksum",
      "thread_cycles",   "l1_hits",             "llc_hits",
      "llc_misses",      "xfers",               "tx_cycles",
      "cc_starts",       "cc_commits",
  };
  return f < kNumFields ? kNames[f] : "?";
}

namespace {

static_assert(static_cast<std::size_t>(sim::AbortCause::kNumCauses) ==
                  CellResult::kAbortCapacityRead - CellResult::kAbortConflict +
                      2,
              "CellResult abort fields mirror AbortCause (minus kNone)");

CellResult from_stats(const sim::RunStats& rs, std::uint64_t checksum,
                      const sim::CcStats* cc) {
  const sim::ThreadStats t = rs.total();
  CellResult r;
  r.v[CellResult::kMakespan] = rs.makespan;
  r.v[CellResult::kMemAccesses] = t.mem_accesses;
  r.v[CellResult::kTxStarted] = t.tx_started;
  r.v[CellResult::kTxCommitted] = t.tx_committed;
  for (std::size_t c = 1; c < t.tx_aborted.size(); ++c) {
    r.v[CellResult::kAbortConflict + c - 1] = t.tx_aborted[c];
  }
  r.v[CellResult::kChecksum] = checksum;
  r.v[CellResult::kThreadCycles] = t.cycles_total();
  r.v[CellResult::kL1Hits] = t.l1_hits;
  r.v[CellResult::kLlcHits] = t.llc_hits;
  r.v[CellResult::kLlcMisses] = t.llc_misses;
  r.v[CellResult::kXfers] = t.xfers_in;
  r.v[CellResult::kTxCycles] = t.tx_cycles_committed + t.tx_cycles_wasted;
  if (cc != nullptr) {
    r.v[CellResult::kCcStarts] = cc->starts;
    r.v[CellResult::kCcCommits] = cc->commits;
  }
  return r;
}

const int kThreadCounts[] = {1, 2, 4, 8};

void add_stamp(std::vector<Cell>& cells, tmlib::Backend scheme,
               std::uint64_t seed) {
  const std::string s = tmlib::to_string(scheme);
  for (const stamp::Workload& w : stamp::all_workloads()) {
    for (int t : kThreadCounts) {
      Cell c;
      c.name = "stamp/" + w.name + "/" + s + "/t" + std::to_string(t);
      c.group = "stamp." + s;
      c.kernel = "stamp/" + w.name;
      c.transactional = scheme == tmlib::Backend::kTsx;
      c.run = [fn = w.fn, scheme, t, seed, label = c.name](sim::Telemetry* tel) {
        stamp::Config cfg;
        cfg.backend = scheme;
        cfg.threads = t;
        cfg.seed = seed;
        cfg.scale = 1.0;
        cfg.run_label = label;
        cfg.machine = default_machine();
        cfg.machine.telemetry = tel;
        const stamp::Result r = fn(cfg);
        return from_stats(r.stats, r.checksum, &r.cc);
      };
      cells.push_back(std::move(c));
    }
  }
}

void add_apps(std::vector<Cell>& cells, apps::Variant variant,
              std::uint64_t seed) {
  // "tsx.init" -> "tsx-init": span group names use '.' as the separator.
  std::string v = apps::to_string(variant);
  for (char& ch : v) ch = ch == '.' ? '-' : ch;
  for (const apps::Workload& w : apps::all_workloads()) {
    for (int t : kThreadCounts) {
      Cell c;
      c.name = "apps/" + w.name + "/" + v + "/t" + std::to_string(t);
      c.group = "apps." + v;
      c.kernel = "apps/" + w.name;
      c.transactional = variant != apps::Variant::kBaseline;
      c.run = [fn = w.fn, variant, t, seed, label = c.name](sim::Telemetry* tel) {
        apps::Config cfg;
        cfg.variant = variant;
        cfg.threads = t;
        cfg.seed = seed;
        cfg.scale = 1.0;
        cfg.run_label = label;
        cfg.machine = default_machine();
        cfg.machine.telemetry = tel;
        const apps::Result r = fn(cfg);
        return from_stats(r.stats, r.checksum, nullptr);
      };
      cells.push_back(std::move(c));
    }
  }
}

// The pair-sharing transactional loop of bench/ablation_topology.cc at its
// full-scale 64-thread point: threads t and t^1 update a 16-line region
// their pair owns, then stream a private 256-line region. The one change is
// the stored value: each transaction increments the line it stores to (the
// access pattern, and so every simulated cycle, is unchanged), which makes
// the pair regions' final sum an output that must equal the number of
// committed transactions. The seed rotates each thread's start offset into
// both regions; seed 1 is ablation_topology's layout exactly.
constexpr int kNumaThreads = 64;
constexpr int kNumaIters = 400;
constexpr int kPairLines = 16;
constexpr int kPrivLines = 256;

CellResult run_numa64(int slices, sim::MapPolicy map, std::uint64_t seed,
                      const std::string& label, sim::Telemetry* tel) {
  sim::MachineConfig cfg = numa64_machine(slices, map);
  cfg.telemetry = tel;
  sim::Machine m(cfg);
  std::vector<sim::Addr> pair_base(kNumaThreads);
  std::vector<sim::Addr> priv_base(kNumaThreads);
  for (int t = 0; t < kNumaThreads; t += 2) {
    const sim::Addr a =
        m.alloc({"pair" + std::to_string(t / 2), kPairLines * 64ull, 64});
    pair_base[t] = a;
    pair_base[t + 1] = a;
  }
  for (int t = 0; t < kNumaThreads; ++t) {
    priv_base[t] =
        m.alloc({"priv" + std::to_string(t), kPrivLines * 64ull, 64});
  }
  std::vector<std::uint64_t> offset(kNumaThreads);
  for (int t = 0; t < kNumaThreads; ++t) {
    offset[t] = (seed - 1) * static_cast<std::uint64_t>(2 * t + 1);
  }

  sim::RunSpec spec;
  spec.threads = kNumaThreads;
  spec.label = label;
  spec.body = [&](sim::Context& c) {
    const int t = c.tid();
    const std::uint64_t off = offset[t];
    auto pair_line = [&](std::uint64_t i) {
      return pair_base[t] + ((i + off) % kPairLines) * 64ull;
    };
    for (int i = 0; i < kNumaIters; ++i) {
      try {
        c.xbegin();
        const std::uint64_t v = c.load(pair_line(i));
        for (int k = 1; k < 8; ++k) (void)c.load(pair_line(i + k));
        c.store(pair_line(i), v + 1);
        c.xend();
      } catch (const sim::TxAbort&) {
      }
      for (int k = 0; k < 4; ++k) {
        (void)c.load(priv_base[t] +
                     ((i * 4 + k + off) % kPrivLines) * 64ull);
      }
    }
  };
  const sim::RunStats rs = m.run(spec);
  std::uint64_t checksum = 0;
  for (int t = 0; t < kNumaThreads; t += 2) {
    for (int l = 0; l < kPairLines; ++l) {
      checksum += m.heap().read_word(pair_base[t] + l * 64ull, 8);
    }
  }
  return from_stats(rs, checksum, nullptr);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"rtm", "no_rtm", "numa64"};
  return kNames;
}

sim::MachineConfig default_machine() {
  sim::MachineConfig cfg;
  cfg.backend = sim::BackendKind::kFiber;
  return cfg;
}

sim::MachineConfig numa64_machine(int slices, sim::MapPolicy map) {
  sim::MachineConfig cfg = default_machine();
  cfg.num_cores = kNumaThreads;
  cfg.smt_per_core = 1;
  cfg.topology.num_sockets = 2;
  cfg.topology.llc_slices = slices;
  cfg.topology.map = map;
  return cfg;
}

std::vector<Cell> make_cells(const std::string& workload, const Seeds& seeds) {
  std::vector<Cell> cells;
  if (workload == "rtm") {
    add_stamp(cells, tmlib::Backend::kTsx, seeds.stamp);
    add_apps(cells, apps::Variant::kTsxInit, seeds.apps);
    add_apps(cells, apps::Variant::kTsxCoarsen, seeds.apps);
  } else if (workload == "no_rtm") {
    add_stamp(cells, tmlib::Backend::kSgl, seeds.stamp);
    add_stamp(cells, tmlib::Backend::kTl2, seeds.stamp);
    add_apps(cells, apps::Variant::kBaseline, seeds.apps);
  } else if (workload == "numa64") {
    for (int slices : {2, 8}) {
      for (sim::MapPolicy map :
           {sim::MapPolicy::kCompact, sim::MapPolicy::kScatter,
            sim::MapPolicy::kSharingAware}) {
        Cell c;
        c.name = std::string("numa64/") + sim::to_string(map) + "/s" +
                 std::to_string(slices);
        c.group = std::string("numa64.") + sim::to_string(map);
        c.kernel = c.name;
        c.transactional = true;
        c.checksum_counts_commits = true;
        c.run = [slices, map, seed = seeds.numa64,
                 label = c.name](sim::Telemetry* tel) {
          return run_numa64(slices, map, seed, label, tel);
        };
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

}  // namespace tsxhpc::perfbench
