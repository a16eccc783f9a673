// perfbench: the simulator's host throughput on the paper's full-scale
// workloads (perfbench/README.md lists the metrics and why each workload
// exists).
//
//   perfbench --workload=rtm --seed=1 --seconds=30 --trace=0
//
// Load is a closed loop on one host thread (fiber backend): each cell
// starts after the previous one finishes. Three cold passes come first (two
// in forked children), then two paired passes (each cell telemetry-off, then
// telemetry-on with its JSON rendered), then telemetry-off passes until
// --seconds have elapsed. A cell's cost is its fastest execution. --trace=1
// is the separate traced run: per-layer probes plus spans around every call
// into the simulator. Every simulated result is checked; the last stdout
// line is one JSON object with the verdict and the metrics, and the exit
// code is 1 when a check failed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/args.h"
#include "perfbench/cells.h"
#include "perfbench/probes.h"
#include "perfbench/reference.h"
#include "perfbench/spans.h"
#include "sim/telemetry.h"

namespace tsxhpc::perfbench {
namespace {

/// Cold passes behind setup_s: this process's own first pass plus this
/// many forked children, each starting from the untouched process image.
constexpr int kSetupChildren = 2;

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

std::uint64_t hash_results(const std::vector<CellResult>& rs) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const CellResult& r : rs) h = fnv1a(r.v.data(), sizeof(r.v), h);
  return h;
}

/// Strict unsigned parse: digits only, no overflow, within [lo, hi].
bool parse_u64(const std::string& s, std::uint64_t lo, std::uint64_t hi,
               std::uint64_t* out) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (s.empty() || ec != std::errc() || ptr != s.data() + s.size()) {
    return false;
  }
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

// --- Expectations recorded at the default seed ------------------------------

using Expectations = std::map<std::string, CellResult>;

std::string expect_path(const std::string& dir, const std::string& workload) {
  return dir + "/" + workload + ".tsv";
}

bool load_expectations(const std::string& path, Expectations* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string name;
    CellResult r;
    row >> name;
    for (std::uint64_t& v : r.v) row >> v;
    if (!row) return false;
    (*out)[name] = r;
  }
  return true;
}

bool write_expectations(const std::string& path, const std::vector<Cell>& cells,
                        const std::vector<CellResult>& results) {
  std::ofstream out(path);
  out << "# cell";
  for (std::size_t f = 0; f < CellResult::kNumFields; ++f) {
    out << '\t' << CellResult::field_name(f);
  }
  out << '\n';
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out << cells[c].name;
    for (std::uint64_t v : results[c].v) out << '\t' << v;
    out << '\n';
  }
  return static_cast<bool>(out);
}

// --- The output check ---------------------------------------------------------

/// Owns the reference result of every cell (its first execution) and the
/// set of failed cells. A cell fails when its checksum is 0, its checksum
/// disagrees with the other cells of its kernel (or, for numa64, with its
/// committed-transaction count), it breaks its workload's tx property, any
/// later execution or telemetry artifact differs from the first, or (at the
/// default seed) it differs from the recorded expectation.
class Checker {
 public:
  explicit Checker(const std::vector<Cell>& cells)
      : cells_(cells), first_(cells.size()), json_(cells.size()),
        failed_(cells.size(), false) {}

  const CellResult& first(std::size_t c) const { return first_[c]; }
  const std::vector<CellResult>& firsts() const { return first_; }

  void fail(std::size_t c, const std::string& why) {
    if (!failed_[c]) {
      failed_[c] = true;
      std::fprintf(stderr, "perfbench: FAIL %s: %s\n", cells_[c].name.c_str(),
                   why.c_str());
    }
  }
  void fail_all(const std::string& why) {
    for (std::size_t c = 0; c < cells_.size(); ++c) fail(c, why);
  }

  /// First execution: per-cell properties, then cross-cell agreement once
  /// the whole pass is in.
  void first_pass(std::vector<CellResult> results, const Expectations* expect) {
    first_ = std::move(results);
    std::map<std::string, std::uint64_t> kernel_checksum;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const Cell& cell = cells_[c];
      const CellResult& r = first_[c];
      if (r[CellResult::kChecksum] == 0) fail(c, "checksum is 0");
      if (cell.transactional && r[CellResult::kTxStarted] == 0) {
        fail(c, "no hardware transaction started");
      }
      if (!cell.transactional && r[CellResult::kTxStarted] != 0) {
        fail(c, "a hardware transaction started");
      }
      if (cell.checksum_counts_commits) {
        if (r[CellResult::kChecksum] != r[CellResult::kTxCommitted]) {
          fail(c, "pair-region sum " +
                      std::to_string(r[CellResult::kChecksum]) +
                      " != committed transactions " +
                      std::to_string(r[CellResult::kTxCommitted]));
        }
      } else {
        auto [it, fresh] =
            kernel_checksum.emplace(cell.kernel, r[CellResult::kChecksum]);
        if (!fresh && it->second != r[CellResult::kChecksum]) {
          fail(c, "checksum differs from the kernel's other cells");
        }
      }
      if (expect != nullptr) {
        const auto e = expect->find(cell.name);
        if (e == expect->end()) {
          fail(c, "no recorded expectation");
        } else {
          same(c, e->second, r, "recorded expectation");
        }
      }
    }
  }

  /// A later execution must reproduce the first exactly.
  void again(std::size_t c, const CellResult& r, int pass) {
    same(c, first_[c], r, "pass " + std::to_string(pass));
  }

  /// Telemetry artifacts must be byte-identical across executions.
  void telemetry(std::size_t c, const std::string& json) {
    const std::pair<std::uint64_t, std::size_t> sig{
        fnv1a(json.data(), json.size()), json.size()};
    if (json_[c].second == 0) {
      json_[c] = sig;
    } else if (json_[c] != sig) {
      fail(c, "telemetry JSON differs between passes");
    }
  }

  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (bool f : failed_) n += f ? 1 : 0;
    return n;
  }

 private:
  void same(std::size_t c, const CellResult& want, const CellResult& got,
            const std::string& what) {
    for (std::size_t f = 0; f < CellResult::kNumFields; ++f) {
      if (want.v[f] != got.v[f]) {
        fail(c, std::string(CellResult::field_name(f)) + " " +
                    std::to_string(got.v[f]) + " != " + what + " " +
                    std::to_string(want.v[f]));
        return;
      }
    }
  }

  const std::vector<Cell>& cells_;
  std::vector<CellResult> first_;
  std::vector<std::pair<std::uint64_t, std::size_t>> json_;
  std::vector<bool> failed_;
};

/// Run one cell; a simulator exception fails the cell and yields zeros.
CellResult run_cell(const Cell& cell, sim::Telemetry* tel, Checker* check,
                    std::size_t c) {
  try {
    return cell.run(tel);
  } catch (const std::exception& e) {
    if (check != nullptr) check->fail(c, std::string("threw: ") + e.what());
    return CellResult{};
  }
}

/// Run one cell, timed in calibrated host seconds (see reference.h): the
/// reference kernel runs first, and the cell's time is scaled by its factor.
CellResult timed_cell(Reference& ref, const Cell& cell, sim::Telemetry* tel,
                      Checker* check, std::size_t c, double* seconds) {
  const double factor = ref.factor();
  const Clock::time_point t0 = Clock::now();
  CellResult r = run_cell(cell, tel, check, c);
  *seconds = seconds_since(t0) * factor;
  return r;
}

/// A cold pass: the first pass over the cells in a fresh process image.
struct ColdPass {
  double seconds = 0;          // calibrated: the sum of cell_s
  std::uint64_t hash = 0;      // hash_results() of the pass's results
  std::vector<double> cell_s;  // calibrated host seconds of each cell
};

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = read(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Run one cold pass in a forked child (called before this process has
/// simulated anything, so the child starts from an untouched image) and
/// wait for it. Returns false if the child failed.
bool child_cold_pass(const std::vector<Cell>& cells, ColdPass* out) {
  int fd[2];
  if (pipe(fd) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return false;
  }
  if (pid == 0) {
    close(fd[0]);
    ColdPass cp;
    std::vector<CellResult> rs;
    Reference ref;
    ref.run();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      double s = 0;
      rs.push_back(timed_cell(ref, cells[c], nullptr, nullptr, c, &s));
      cp.cell_s.push_back(s);
      cp.seconds += s;
    }
    cp.hash = hash_results(rs);
    const bool ok =
        write_all(fd[1], &cp.seconds, sizeof(cp.seconds)) &&
        write_all(fd[1], &cp.hash, sizeof(cp.hash)) &&
        write_all(fd[1], cp.cell_s.data(), cp.cell_s.size() * sizeof(double));
    _exit(ok ? 0 : 1);
  }
  close(fd[1]);
  out->cell_s.assign(cells.size(), 0.0);
  const bool ok =
      read_all(fd[0], &out->seconds, sizeof(out->seconds)) &&
      read_all(fd[0], &out->hash, sizeof(out->hash)) &&
      read_all(fd[0], out->cell_s.data(), out->cell_s.size() * sizeof(double));
  close(fd[0]);
  int status = 0;
  pid_t waited = -1;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  return ok && waited == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

std::string fmt_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) j += ", ";
    j += "\"" + metrics[i].name + "\": {\"value\": " +
         fmt_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

std::uint64_t sum_field(const std::vector<CellResult>& rs,
                        CellResult::Field f) {
  std::uint64_t n = 0;
  for (const CellResult& r : rs) n += r[f];
  return n;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Deterministic simulated counts of one pass: the denominators of every
/// host-time ratio.
void count_metrics(const std::vector<CellResult>& rs, std::vector<Metric>& out) {
  using F = CellResult;
  const double acc = static_cast<double>(sum_field(rs, F::kMemAccesses));
  const double l1 = static_cast<double>(sum_field(rs, F::kL1Hits));
  const double llc_hits = static_cast<double>(sum_field(rs, F::kLlcHits));
  const double llc_misses = static_cast<double>(sum_field(rs, F::kLlcMisses));
  const double started = static_cast<double>(sum_field(rs, F::kTxStarted));
  const double committed = static_cast<double>(sum_field(rs, F::kTxCommitted));
  const double cycles = static_cast<double>(sum_field(rs, F::kThreadCycles));
  std::uint64_t capacity = 0;
  for (const CellResult& r : rs) capacity += r.capacity_aborts();
  out.push_back({"mem.accesses", acc, "count"});
  out.push_back({"mem.l1_hit_ratio", ratio(l1, acc), "ratio"});
  out.push_back(
      {"mem.llc_hit_ratio", ratio(llc_hits, llc_hits + llc_misses), "ratio"});
  out.push_back(
      {"mem.xfers", static_cast<double>(sum_field(rs, F::kXfers)), "count"});
  out.push_back({"htm.tx_started", started, "count"});
  out.push_back({"htm.commit_ratio", ratio(committed, started), "ratio"});
  out.push_back(
      {"htm.tx_cycle_share",
       ratio(static_cast<double>(sum_field(rs, F::kTxCycles)), cycles),
       "ratio"});
  out.push_back(
      {"htm.capacity_aborts", static_cast<double>(capacity), "count"});
  out.push_back(
      {"cc.commit_ratio",
       ratio(static_cast<double>(sum_field(rs, F::kCcCommits)),
             static_cast<double>(sum_field(rs, F::kCcStarts))),
       "ratio"});
  out.push_back({"sim.thread_cycles", cycles, "count"});
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::uint64_t seconds = 30;
  bool traced = false;
  bool record = false;
  std::string expect_dir;
  std::string spans_path;
};

/// The expectations for `workload`'s cells at the default seed (null at
/// other seeds). A missing file is reported and yields an empty table, so
/// every cell then fails for lack of an expectation.
const Expectations* expectations_for(const Options& o,
                                     const std::string& workload,
                                     Expectations* storage) {
  if (o.seed != kDefaultSeed) return nullptr;
  const std::string path = expect_path(o.expect_dir, workload);
  if (!load_expectations(path, storage)) {
    std::fprintf(stderr, "perfbench: cannot read expectations %s\n",
                 path.c_str());
    storage->clear();
  }
  return storage;
}

int run(const Options& o) {
  const Seeds seeds = Seeds::from(o.seed);
  const std::vector<Cell> cells = make_cells(o.workload, seeds);
  Checker check(cells);
  Expectations expect_storage;
  Tracer tr(o.traced);
  std::vector<Metric> metrics;
  std::uint64_t attempted = cells.size();
  std::uint64_t failed_elsewhere = 0;

  std::printf("perfbench: workload %s, seed %llu, %zu cells, %s run\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              cells.size(), o.traced ? "traced" : "untraced");

  // Cold passes: the children first, so each starts from an untouched
  // image, then this process's own (which also becomes the reference every
  // later execution is checked against).
  std::vector<ColdPass> cold;
  Reference ref;
  if (!o.traced && !o.record) {
    for (int k = 0; k < kSetupChildren; ++k) {
      ColdPass cp;
      if (child_cold_pass(cells, &cp)) {
        cold.push_back(std::move(cp));
      } else {
        check.fail_all("set-up child process failed");
      }
    }
  }
  {
    ColdPass own;
    std::vector<CellResult> rs(cells.size());
    ref.run();
    {
      Scope pass_span(tr, "pass.cold");
      for (std::size_t c = 0; c < cells.size(); ++c) {
        Scope cell_span(tr, cells[c].name);
        double s = 0;
        rs[c] = timed_cell(ref, cells[c], nullptr, &check, c, &s);
        own.cell_s.push_back(s);
        own.seconds += s;
      }
    }
    if (o.record) {
      const std::string path = expect_path(o.expect_dir, o.workload);
      if (o.seed != kDefaultSeed || !write_expectations(path, cells, rs)) {
        std::fprintf(stderr, "perfbench: cannot record %s (seed must be %llu)\n",
                     path.c_str(),
                     static_cast<unsigned long long>(kDefaultSeed));
        return 2;
      }
      std::printf("perfbench: recorded %s\n", path.c_str());
      return 0;
    }
    check.first_pass(std::move(rs),
                     expectations_for(o, o.workload, &expect_storage));
    own.hash = hash_results(check.firsts());
    for (const ColdPass& cp : cold) {
      if (cp.hash != own.hash) {
        check.fail_all("a set-up child's results differ from this process's");
      }
    }
    cold.push_back(std::move(own));
  }

  double acc = 0, cycles = 0;
  for (const CellResult& r : check.firsts()) {
    acc += static_cast<double>(r[CellResult::kMemAccesses]);
    cycles += static_cast<double>(r[CellResult::kThreadCycles]);
  }

  // Each cell telemetry-off, then at once telemetry-on with its JSON
  // rendered, so both executions of a pair see the same host conditions
  // (and share one calibration factor).
  struct Paired {
    std::vector<double> off_s;  // per cell, calibrated
    double off = 0, on = 0;     // sums, calibrated
    double json_s = 0, json_bytes = 0;
  };
  auto paired_pass = [&](int pass) {
    Scope pass_span(tr, "pass.paired");
    Paired p;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Scope cell_span(tr, cells[c].name);
      const double factor = ref.factor();
      Clock::time_point t0 = Clock::now();
      check.again(c, run_cell(cells[c], nullptr, &check, c), pass);
      const double off_s = seconds_since(t0) * factor;
      sim::Telemetry tel;
      t0 = Clock::now();
      const CellResult r = run_cell(cells[c], &tel, &check, c);
      const Clock::time_point t1 = Clock::now();
      const std::string json = tel.json("perfbench");
      p.off_s.push_back(off_s);
      p.off += off_s;
      p.on += seconds_since(t0) * factor;
      p.json_s += seconds_since(t1);
      p.json_bytes += static_cast<double>(json.size());
      check.again(c, r, pass);
      check.telemetry(c, json);
    }
    return p;
  };

  if (!o.traced) {
    // Two paired passes (so every telemetry artifact is compared across
    // passes), then telemetry-off passes while the next still fits the
    // budget. Every execution is a sample of its cell's cost, the cold ones
    // too.
    std::vector<double> best(cells.size(), 1e300);
    std::vector<double> setup;
    for (const ColdPass& cp : cold) {
      setup.push_back(cp.seconds);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        best[c] = std::min(best[c], cp.cell_s[c]);
      }
    }
    const Clock::time_point t0 = Clock::now();
    double paired_off = 0, paired_on = 0, last_pass_s = 0;
    int passes = 0;
    while (passes < 2 ||
           seconds_since(t0) + last_pass_s <= static_cast<double>(o.seconds)) {
      ++passes;
      const Clock::time_point p0 = Clock::now();
      if (passes <= 2) {
        const Paired p = paired_pass(passes);
        for (std::size_t c = 0; c < cells.size(); ++c) {
          best[c] = std::min(best[c], p.off_s[c]);
        }
        paired_off += p.off;
        paired_on += p.on;
        last_pass_s = seconds_since(p0) * p.off / (p.off + p.on);
        continue;
      }
      for (std::size_t c = 0; c < cells.size(); ++c) {
        double s = 0;
        check.again(c, timed_cell(ref, cells[c], nullptr, &check, c, &s),
                    passes);
        best[c] = std::min(best[c], s);
      }
      last_pass_s = seconds_since(p0);
    }
    // Host interference only ever adds time, so each cell's fastest
    // execution is the estimate of its own cost and a pass costs their sum.
    // The telemetry-on pass costs that times the paired on/off ratio.
    double t_off = 0;
    std::vector<double> ns_per_access;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      t_off += best[c];
      ns_per_access.push_back(
          best[c] * 1e9 /
          static_cast<double>(check.first(c)[CellResult::kMemAccesses]));
    }
    const double t_on = t_off * paired_on / paired_off;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics.push_back({"sim_maccess_per_s", acc / t_off / 1e6, "Maccess/s"});
    metrics.push_back({"sim_mcycle_per_s", cycles / t_off / 1e6, "Mcycle/s"});
    metrics.push_back({"cell_ns_per_access_p50", quantile(ns_per_access, 0.5), "ns"});
    metrics.push_back({"cell_ns_per_access_p90", quantile(ns_per_access, 0.9), "ns"});
    metrics.push_back({"json_maccess_per_s", acc / t_on / 1e6, "Maccess/s"});
    metrics.push_back({"setup_s", median(setup), "s"});
    metrics.push_back(
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"});
    std::printf("perfbench: %zu cold + %d timed passes (best of %zu per "
                "cell), %zu cells in p50/p90, reference kernel %.3f ms "
                "(nominal %.3f), host.calib_ns %.4f\n",
                cold.size(), passes, cold.size() + passes,
                ns_per_access.size(), ref.recent_seconds() * 1e3,
                Reference::kNominalSeconds * 1e3, calibration_ns());
  } else {
    {
      Scope s(tr, "probes");
      run_layer_probes(o.workload == "numa64"
                           ? numa64_machine(8, sim::MapPolicy::kCompact)
                           : default_machine(),
                       tr, metrics);
    }
    // The cold pass, then a paired pass; each cell's cost is its faster
    // telemetry-off execution, as in the untraced run.
    const Paired paired = paired_pass(2);
    double off_s = 0;
    std::map<std::string, double> group_s;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const double best = std::min(cold.back().cell_s[c], paired.off_s[c]);
      off_s += best;
      group_s[cells[c].group] += best;
    }
    // The other workloads' groups, from one pass of their cells.
    for (const std::string& w : workload_names()) {
      if (w == o.workload) continue;
      const std::vector<Cell> other = make_cells(w, seeds);
      Checker other_check(other);
      std::vector<CellResult> rs(other.size());
      Scope pass_span(tr, "pass." + w);
      for (std::size_t c = 0; c < other.size(); ++c) {
        Scope cell_span(tr, other[c].name);
        double s = 0;
        rs[c] = timed_cell(ref, other[c], nullptr, &other_check, c, &s);
        group_s[other[c].group] += s;
      }
      Expectations other_expect;
      other_check.first_pass(std::move(rs),
                             expectations_for(o, w, &other_expect));
      attempted += other.size();
      failed_elsewhere += other_check.failed();
    }
    metrics.push_back({"telemetry.json_ms", paired.json_s * 1e3, "ms"});
    metrics.push_back({"telemetry.json_mb", paired.json_bytes / 1e6, "MB"});
    metrics.push_back({"telemetry.overhead_pct",
                       (paired.on / paired.off - 1.0) * 100.0, "%"});
    for (const char* g :
         {"stamp.sgl", "stamp.tl2", "stamp.tsx", "apps.baseline",
          "apps.tsx-init", "apps.tsx-coarsen", "numa64.compact",
          "numa64.scatter", "numa64.sharing-aware"}) {
      metrics.push_back({std::string("cell_s.") + g, group_s[g], "s"});
    }
    count_metrics(check.firsts(), metrics);
    metrics.push_back({"host.ref_ms", ref.recent_seconds() * 1e3, "ms"});
    metrics.push_back(
        {"traced.sim_maccess_per_s", acc / off_s / 1e6, "Maccess/s"});
    if (!o.spans_path.empty() && !tr.write(o.spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   o.spans_path.c_str());
      return 1;
    }
  }

  const std::uint64_t failed = check.failed() + failed_elsewhere;
  if (!o.traced) {
    metrics.push_back({"ok_cell_frac",
                       1.0 - static_cast<double>(failed) /
                                 static_cast<double>(attempted),
                       "ratio"});
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tsxhpc::perfbench

int main(int argc, char** argv) {
  using namespace tsxhpc;
  bench::Args args("perfbench",
                   "simulator host throughput on the paper's workloads");
  perfbench::Options o;
  std::string seed = std::to_string(perfbench::kDefaultSeed);
  std::string seconds = std::to_string(o.seconds);
  std::string trace;
  o.expect_dir = "perfbench/expected";
  args.add_choice("workload", "cell list to run (required)", &o.workload,
                  perfbench::workload_names());
  args.add_string("seed",
                  "workload seed, 0..4294967295 (1 = the paper benches' "
                  "inputs, checked against --expect-dir)",
                  &seed);
  args.add_string("seconds", "timed budget in host seconds, 1..3600",
                  &seconds);
  args.add_choice("trace",
                  "1 = traced run: per-layer probes and spans (default 0)",
                  &trace, {"0", "1"});
  args.add_string("expect-dir",
                  "directory of <workload>.tsv expectations for seed 1",
                  &o.expect_dir);
  args.add_bool("record",
                "write this workload's seed-1 expectations to --expect-dir "
                "and exit",
                &o.record);
  args.add_string("spans", "traced run: write the spans (Chrome trace) here",
                  &o.spans_path);
  if (!args.parse(argc, argv)) return args.exit_code();
  if (o.workload.empty()) return args.fail("--workload is required");
  if (!perfbench::parse_u64(seed, 0, 0xFFFFFFFFULL, &o.seed)) {
    return args.fail("bad value for '--seed': '" + seed +
                     "' (expected an integer in 0..4294967295)");
  }
  if (!perfbench::parse_u64(seconds, 1, 3600, &o.seconds)) {
    return args.fail("bad value for '--seconds': '" + seconds +
                     "' (expected an integer in 1..3600)");
  }
  o.traced = trace == "1";
  return perfbench::run(o);
}
