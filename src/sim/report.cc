#include "sim/report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "sim/invariants.h"
#include "sim/sweep.h"

namespace tsxhpc::sim {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

/// Counter `key` of `obj` as printf's %llu takes it.
unsigned long long llu(const JsonValue& obj, std::string_view key) {
  return obj.u64(key);
}

/// The object in `objs` whose `key` member is `label`, or null.
const JsonValue* find_labeled(const std::vector<JsonValue>& objs,
                              const char* key, const std::string& label) {
  for (const JsonValue& o : objs) {
    if (o.str(key) == label) return &o;
  }
  return nullptr;
}

/// Index of the largest element (ties to the lowest index); -1 if empty.
int argmax(const JsonValue& arr) {
  int best = -1;
  std::uint64_t best_v = 0;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const std::uint64_t v = arr.u64(i);
    if (best < 0 || v > best_v) {
      best = static_cast<int>(i);
      best_v = v;
    }
  }
  return best;
}

void render_abort_tree(std::string& out, const JsonValue& totals) {
  const std::uint64_t started = totals.u64("tx_started");
  const std::uint64_t committed = totals.u64("tx_committed");
  const std::uint64_t aborted = totals.u64("tx_aborted");
  appendf(out, "  transactions: started=%llu\n",
          static_cast<unsigned long long>(started));
  const double of_started = started == 0 ? 0.0 : 100.0 / static_cast<double>(started);
  appendf(out, "  |- committed  %12llu  (%5.1f%%)\n",
          static_cast<unsigned long long>(committed),
          static_cast<double>(committed) * of_started);
  appendf(out, "  `- aborted    %12llu  (%5.1f%%)\n",
          static_cast<unsigned long long>(aborted),
          static_cast<double>(aborted) * of_started);
  const JsonValue& causes = totals.obj("aborts_by_cause");
  const auto& members = causes.members();
  std::size_t shown = 0, nonzero = 0;
  for (const auto& [k, v] : members) {
    if (causes.u64(k) != 0) nonzero++;
  }
  for (const auto& [k, v] : members) {
    const std::uint64_t n = causes.u64(k);
    if (n == 0) continue;
    shown++;
    const double pct =
        aborted == 0 ? 0.0
                     : 100.0 * static_cast<double>(n) / static_cast<double>(aborted);
    appendf(out, "     %s %-14s %12llu  (%5.1f%% of aborts)\n",
            shown == nonzero ? "`-" : "|-", k.c_str(),
            static_cast<unsigned long long>(n), pct);
  }
}

/// Concurrency-control block, present on runs a TM runtime reported into.
/// Region-level counters from the CcBackend seam: attempt chain, abort
/// classes, and the scheme-specific extras (TicToc rts extensions, MVCC
/// snapshot/version/GC accounting) — rendered only when nonzero so sgl/tsx
/// rows stay compact.
void render_cc(std::string& out, const JsonValue& run) {
  if (!run.find("cc")) return;
  const JsonValue& cc = run.obj("cc");
  appendf(out,
          "  cc [%s]: starts=%llu commits=%llu aborts=%llu (%.2f%%)\n",
          cc.str("scheme").c_str(), llu(cc, "starts"), llu(cc, "commits"),
          llu(cc, "aborts"), cc.f64("abort_rate_pct"));
  if (cc.u64("aborts") != 0) {
    const JsonValue& cls = cc.obj("aborts_by_class");
    appendf(out,
            "    abort classes: read-validation=%llu lock-acquire=%llu "
            "commit-validation=%llu\n",
            llu(cls, "read_validation"), llu(cls, "lock_acquire"),
            llu(cls, "commit_validation"));
  }
  if (cc.u64("read_set_extensions") != 0) {
    appendf(out, "    rts extensions: %llu\n",
            llu(cc, "read_set_extensions"));
  }
  if (cc.u64("snapshot_commits") != 0 || cc.u64("versions_created") != 0) {
    appendf(out,
            "    mvcc: snapshot-commits=%llu versions=%llu chain-hops=%llu "
            "depth-max=%llu gc(runs=%llu reclaims=%llu)\n",
            llu(cc, "snapshot_commits"), llu(cc, "versions_created"),
            llu(cc, "version_chain_hops"), llu(cc, "version_chain_depth_max"),
            llu(cc, "gc_runs"), llu(cc, "gc_reclaims"));
  }
}

void render_conflict_lines(std::string& out, const JsonValue& run,
                           std::size_t top) {
  const JsonValue& lines = run.arr("conflict_lines");
  const std::uint64_t total = run.u64("conflict_lines_total");
  if (lines.size() == 0) {
    out += "  top conflicting lines: none\n";
    return;
  }
  appendf(out, "  top conflicting lines (%zu of %llu):\n",
          std::min<std::size_t>(lines.size(), top),
          static_cast<unsigned long long>(total));
  for (std::size_t i = 0; i < lines.size() && i < top; ++i) {
    const JsonValue& l = lines.obj(i);
    const std::string& object = l.str("object");
    const int agg = argmax(l.arr("by_aggressor"));
    const int vic = argmax(l.arr("by_victim"));
    char agg_s[16] = "-", vic_s[16] = "-";
    if (agg >= 0) std::snprintf(agg_s, sizeof(agg_s), "t%d", agg);
    if (vic >= 0) std::snprintf(vic_s, sizeof(vic_s), "t%d", vic);
    appendf(out,
            "    %-18s %-20s dooms=%-6llu (w=%llu r=%llu) "
            "top-aggressor=%s top-victim=%s\n",
            l.str("line").c_str(),
            object.empty() ? "(unnamed)" : object.c_str(), llu(l, "dooms"),
            llu(l, "write_dooms"), llu(l, "read_dooms"), agg_s, vic_s);
  }
}

void render_capacity_lines(std::string& out, const JsonValue& run,
                           std::size_t top) {
  const JsonValue& lines = run.arr("capacity_lines");
  if (lines.size() == 0) return;
  appendf(out, "  capacity-doomed lines (%zu of %llu):\n",
          std::min<std::size_t>(lines.size(), top),
          llu(run, "capacity_lines_total"));
  for (std::size_t i = 0; i < lines.size() && i < top; ++i) {
    const JsonValue& l = lines.obj(i);
    const std::string& object = l.str("object");
    appendf(out, "    %-18s %-20s write-evict=%llu read-evict=%llu\n",
            l.str("line").c_str(),
            object.empty() ? "(unnamed)" : object.c_str(),
            llu(l, "write_evict_dooms"), llu(l, "read_evict_dooms"));
  }
}

/// Per-level hit/miss/evict table.
void render_cache_levels(std::string& out, const JsonValue& run) {
  out +=
      "  cache hierarchy (run totals):\n"
      "    level        served        misses     evictions  stall-cycles\n";
  for (const JsonValue& l : run.objects("cache_levels")) {
    appendf(out, "    %-5s  %12llu  %12llu  %12llu  %12llu\n",
            l.str("level").c_str(), llu(l, "served"), llu(l, "misses"),
            llu(l, "evictions"), llu(l, "stall_cycles"));
  }
}

/// Topology-resolved view. Rendered only for machines with an actual
/// interconnect (more than one socket or slice) — the default
/// 1-socket/1-slice reports read exactly as they always did.
void render_topology(std::string& out, const JsonValue& run) {
  const JsonValue& topo = run.obj("topology");
  const std::uint64_t sockets = topo.u64("sockets");
  const std::uint64_t slices = topo.u64("slices");
  if (sockets <= 1 && slices <= 1) return;
  appendf(out,
          "  topology: %llu socket(s) x %llu cores, %llu LLC slice(s), "
          "map=%s (hop cycles: slice=%llu socket=%llu)\n",
          static_cast<unsigned long long>(sockets),
          llu(topo, "cores_per_socket"),
          static_cast<unsigned long long>(slices), topo.str("map").c_str(),
          llu(topo, "lat_hop_slice"), llu(topo, "lat_hop_socket"));
  const JsonValue& ss = topo.arr("slice_stats");
  for (std::size_t s = 0; s < ss.size(); ++s) {
    const JsonValue& sl = ss.obj(s);
    appendf(out,
            "    slice s%zu: hits=%llu misses=%llu evictions=%llu "
            "xfers=%llu\n",
            s, llu(sl, "hits"), llu(sl, "misses"), llu(sl, "evictions"),
            llu(sl, "xfers"));
  }
  const JsonValue& so = topo.arr("socket_stats");
  for (std::size_t s = 0; s < so.size(); ++s) {
    const JsonValue& sk = so.obj(s);
    appendf(out,
            "    socket %zu: accesses=%llu dram(local=%llu remote=%llu) "
            "hops(slice=%llu socket=%llu)\n",
            s, llu(sk, "accesses"), llu(sk, "dram_local"),
            llu(sk, "dram_remote"), llu(sk, "slice_hops"),
            llu(sk, "socket_hops"));
  }
  const JsonValue& tot = run.obj("totals");
  if (tot.u64("hop_cycles") != 0) {
    appendf(out, "    hop cycles: %llu (slice hops=%llu, socket hops=%llu)\n",
            llu(tot, "hop_cycles"), llu(tot, "slice_hops"),
            llu(tot, "socket_hops"));
  }
}

constexpr const char* kBucketKeys[] = {"work",      "tx_committed", "tx_wasted",
                                       "lock_wait", "fallback",     "mem_stall"};

void render_cycle_table(std::string& out, const JsonValue& run) {
  const std::vector<JsonValue>& threads = run.objects("threads");
  if (threads.empty()) return;
  out +=
      "  cycle accounting (cycles per thread):\n"
      "    tid          work  tx_committed     tx_wasted     lock_wait"
      "      fallback     mem_stall         total\n";
  const auto row = [&out](const JsonValue& cy) {
    for (const char* k : kBucketKeys) {
      appendf(out, "  %12llu", llu(cy, k));
    }
    appendf(out, "  %12llu\n", llu(cy, "total"));
  };
  for (const JsonValue& th : threads) {
    appendf(out, "    %3llu", llu(th, "tid"));
    row(th.obj("cycles"));
  }
  out += "    sum";
  row(run.obj("totals").obj("cycles"));
}

void render_locks(std::string& out, const JsonValue& run) {
  const std::vector<JsonValue>& locks = run.objects("locks");
  if (locks.empty()) return;
  out += "  lock sites:\n";
  for (const JsonValue& l : locks) {
    appendf(out,
            "    %-14s %-8s acquires=%-6llu elision=%5.1f%% "
            "tx-cycles(committed=%llu wasted=%llu) fallback-hold=%llu "
            "wait=%llu\n",
            l.str("site").c_str(), l.str("kind").c_str(), llu(l, "acquires"),
            l.f64("elision_rate_pct"), llu(l, "tx_cycles_committed"),
            llu(l, "tx_cycles_wasted"), llu(l, "fallback_hold_cycles"),
            llu(l, "wait_cycles"));
    // TxPolicy decision counts. Only render sites the policy actually
    // touched, so plain spin/futex rows stay one line.
    const JsonValue& pd = l.obj("policy");
    std::uint64_t total = 0;
    for (const char* k :
         {"retries", "backoffs", "lock_waits", "fallbacks", "skips"}) {
      total += pd.u64(k);
    }
    if (total > 0) {
      appendf(out,
              "      policy: retries=%llu backoffs=%llu lock-waits=%llu "
              "fallbacks=%llu skips=%llu\n",
              llu(pd, "retries"), llu(pd, "backoffs"), llu(pd, "lock_waits"),
              llu(pd, "fallbacks"), llu(pd, "skips"));
    }
  }
}

}  // namespace

std::string render_report(const JsonValue& doc,
                          const std::vector<Finding>& findings,
                          const ReportOptions& opt) {
  std::string out;
  const std::vector<JsonValue>& runs = doc.objects("runs");
  appendf(out, "tsx_report: bench=%s schema=%s runs=%zu\n",
          doc.str("bench").c_str(), doc.str("schema").c_str(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const JsonValue& run = runs[i];
    const JsonValue& totals = run.obj("totals");
    appendf(out, "\nrun %s: threads=%llu makespan=%llu%s\n",
            run.str("label").c_str(), llu(run, "num_threads"),
            llu(run, "makespan"),
            run.boolean("complete") ? "" : " (incomplete)");
    render_abort_tree(out, totals);
    appendf(out, "  abort rate: %.2f%% of started transactions\n",
            totals.f64("abort_rate_pct"));
    appendf(out, "  wasted cycles: %.2f%% of transactional cycles\n",
            totals.f64("wasted_cycle_pct"));
    render_cc(out, run);
    render_conflict_lines(out, run, opt.top_lines);
    render_capacity_lines(out, run, opt.top_lines);
    render_cache_levels(out, run);
    render_topology(out, run);
    render_cycle_table(out, run);
    for (const Finding& f : findings) {
      if (f.run_index == i) out += "  !! " + f.str() + '\n';
    }
    render_locks(out, run);
  }
  return out;
}

namespace {

/// Run-by-run comparison shared by the flat diff and the per-cell grid
/// diff. A label present on one side only is a label-set mismatch and
/// counts as a failure — "(skipped)" silently waved through sweeps that
/// dropped runs. `where` prefixes every line ("" or "cell <label>: ").
int diff_run_sets(const JsonValue& base_tel, const JsonValue& cur_tel,
                  const DiffThresholds& thr, const std::string& where,
                  std::string& out) {
  const std::vector<JsonValue>& base_runs = base_tel.objects("runs");
  const std::vector<JsonValue>& cur_runs = cur_tel.objects("runs");
  int failures = 0;
  for (const JsonValue& c : cur_runs) {
    const std::string& label = c.str("label");
    const JsonValue* b = find_labeled(base_runs, "label", label);
    if (!b) {
      appendf(out,
              "%srun %s: MISMATCH — present in current but not in baseline "
              "(label-set mismatch is a failure)\n",
              where.c_str(), label.c_str());
      failures++;
      continue;
    }
    const double abort_b = b->obj("totals").f64("abort_rate_pct");
    const double abort_c = c.obj("totals").f64("abort_rate_pct");
    const double waste_b = b->obj("totals").f64("wasted_cycle_pct");
    const double waste_c = c.obj("totals").f64("wasted_cycle_pct");
    const std::uint64_t mk_b = b->u64("makespan");
    const std::uint64_t mk_c = c.u64("makespan");
    const bool abort_reg = abort_c - abort_b > thr.abort_rate_pp;
    const bool waste_reg = waste_c - waste_b > thr.wasted_cycle_pp;
    appendf(out,
            "%srun %s: abort-rate %.2f%% -> %.2f%% (%+.2fpp)%s  "
            "wasted-cycles %.2f%% -> %.2f%% (%+.2fpp)%s  "
            "makespan %llu -> %llu\n",
            where.c_str(), label.c_str(), abort_b, abort_c, abort_c - abort_b,
            abort_reg ? " REGRESSION" : "", waste_b, waste_c,
            waste_c - waste_b, waste_reg ? " REGRESSION" : "",
            static_cast<unsigned long long>(mk_b),
            static_cast<unsigned long long>(mk_c));
    failures += (abort_reg ? 1 : 0) + (waste_reg ? 1 : 0);
  }
  // The reverse direction: baseline runs the current artifact dropped.
  for (const JsonValue& b : base_runs) {
    const std::string& label = b.str("label");
    if (!find_labeled(cur_runs, "label", label)) {
      appendf(out,
              "%srun %s: MISMATCH — present in baseline but missing from "
              "current (label-set mismatch is a failure)\n",
              where.c_str(), label.c_str());
      failures++;
    }
  }
  return failures;
}

}  // namespace

int render_diff(const JsonValue& base, const JsonValue& cur,
                const DiffThresholds& thr, std::string& out) {
  appendf(out, "tsx_report diff: base bench=%s, current bench=%s\n",
          base.str("bench").c_str(), cur.str("bench").c_str());
  appendf(out,
          "thresholds: abort-rate +%.2fpp, wasted-cycles +%.2fpp\n",
          thr.abort_rate_pp, thr.wasted_cycle_pp);
  const int failures = diff_run_sets(base, cur, thr, "", out);
  appendf(out, "%d failure(s) (regressions or label-set mismatches)\n",
          failures);
  return failures;
}

// ---------------------------------------------------------------------------
// Per-set heatmaps (the `set_stats` block of --set-stats runs)
// ---------------------------------------------------------------------------

namespace {

/// 10-step density ramp; 0 maps to ' ' so cold sets stay visually silent.
char density_glyph(std::uint64_t v, std::uint64_t max) {
  static const char kRamp[] = " .:-=+*#%@";
  if (v == 0) return kRamp[0];
  if (max == 0) return kRamp[1];
  std::size_t idx = 1 + static_cast<std::size_t>((v * 8) / max);
  if (idx > 9) idx = 9;
  return kRamp[idx];
}

/// Per-set column `key` of a set_stats level: one value per set, since the
/// heatmap rows index every column by set.
std::vector<std::uint64_t> set_column(const JsonValue& level,
                                      const char* key) {
  const JsonValue& arr = level.arr(key, level.u64("sets"));
  std::vector<std::uint64_t> v(arr.size(), 0);
  for (std::size_t i = 0; i < arr.size(); ++i) v[i] = arr.u64(i);
  return v;
}

void render_density_row(std::string& out, const char* name,
                        const std::vector<std::uint64_t>& v) {
  std::uint64_t max = 0, total = 0;
  for (std::uint64_t x : v) {
    total += x;
    if (x > max) max = x;
  }
  appendf(out, "    %-10s |", name);
  for (std::uint64_t x : v) out.push_back(density_glyph(x, max));
  appendf(out, "| total=%llu max=%llu\n",
          static_cast<unsigned long long>(total),
          static_cast<unsigned long long>(max));
}

/// Does the (wrapped) span [start, start+covered) of a level with `sets`
/// sets contain `set`?
bool span_covers(std::uint64_t start, std::uint64_t covered,
                 std::uint64_t sets, std::uint64_t set) {
  if (covered >= sets) return true;
  return (set + sets - start) % sets < covered;
}

bool level_matches(const std::string& name, const std::string& filter) {
  if (filter == "all" || filter.empty()) return true;
  if (filter == "l1") return name.rfind("l1.", 0) == 0;
  // "llc" covers the single-slice level and every "llc.s<i>" slice; a full
  // instance name ("llc.s2") still selects one slice.
  if (filter == "llc") return name == "llc" || name.rfind("llc.", 0) == 0;
  return name == filter;
}

}  // namespace

bool render_set_heatmaps(const JsonValue& doc, const std::string& level_filter,
                         std::string& out) {
  bool any_block = false;
  bool any_level = false;
  for (const JsonValue& run : doc.objects("runs")) {
    if (!run.find("set_stats")) continue;
    const JsonValue& ss = run.obj("set_stats");
    any_block = true;
    appendf(out, "\nrun %s: per-set heatmaps (line_bytes=%llu)\n",
            run.str("label").c_str(), llu(ss, "line_bytes"));
    const std::vector<JsonValue>& objects = ss.objects("objects");
    for (const JsonValue& lv : ss.objects("levels")) {
      const std::string& name = lv.str("level");
      if (!level_matches(name, level_filter)) continue;
      any_level = true;
      const std::uint64_t sets = lv.u64("sets");
      appendf(out, "  level %s: %llu sets x %llu ways\n", name.c_str(),
              static_cast<unsigned long long>(sets), llu(lv, "ways"));
      const auto occupancy = set_column(lv, "occupancy");
      const auto evictions = set_column(lv, "evictions");
      const auto back_inv = set_column(lv, "back_invalidations");
      const auto w_dooms = set_column(lv, "capacity_write_dooms");
      const auto r_dooms = set_column(lv, "capacity_read_dooms");
      std::vector<std::uint64_t> dooms(sets, 0);
      for (std::size_t s = 0; s < dooms.size(); ++s) {
        dooms[s] = w_dooms[s] + r_dooms[s];
      }
      render_density_row(out, "occupancy", occupancy);
      render_density_row(out, "evictions", evictions);
      std::uint64_t bi_total = 0;
      for (std::uint64_t x : back_inv) bi_total += x;
      if (bi_total != 0) render_density_row(out, "back-inv", back_inv);
      render_density_row(out, "dooms", dooms);
      // Hottest sets by eviction pressure + capacity dooms, with the named
      // objects whose span covers each (the "which object overflows which
      // set" attribution the placement work needs).
      // Named-object geometry attribution applies to any LLC level — the
      // single-slice "llc" or a "llc.s<i>" slice (every slice shares the
      // same set map; only line *membership* differs by hash).
      const bool is_llc = name.rfind("llc", 0) == 0;
      std::vector<std::size_t> order(dooms.size());
      for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         const std::uint64_t sa = evictions[a] + dooms[a];
                         const std::uint64_t sb = evictions[b] + dooms[b];
                         return sa > sb;
                       });
      for (std::size_t k = 0; k < order.size() && k < 4; ++k) {
        const std::size_t s = order[k];
        if (evictions[s] + dooms[s] == 0) break;
        appendf(out, "    hot set %3zu: evictions=%llu dooms=%llu",
                s, static_cast<unsigned long long>(evictions[s]),
                static_cast<unsigned long long>(dooms[s]));
        std::string names;
        for (const JsonValue& o : objects) {
          const std::uint64_t start =
              o.u64(is_llc ? "llc_set_start" : "l1_set_start");
          const std::uint64_t covered =
              o.u64(is_llc ? "llc_sets_covered" : "l1_sets_covered");
          if (!span_covers(start, covered, sets, s)) continue;
          if (!names.empty()) names += ", ";
          names += o.str("name");
        }
        appendf(out, "  objects: %s\n", names.empty() ? "-" : names.c_str());
      }
    }
  }
  if (!any_block) {
    appendf(out, "no set_stats block in this artifact — re-run the bench "
                 "with --set-stats (telemetry v8)\n");
    return false;
  }
  if (!any_level) {
    appendf(out, "no cache level matches --sets=%s (use all, l1, llc, or an "
                 "instance like l1.c0)\n", level_filter.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Sweep-grid artifacts (tsxhpc-sweep-v1)
// ---------------------------------------------------------------------------

namespace {

/// One cell's aggregate over every run embedded in its telemetry: counters
/// and cycle buckets are summed (a cell whose bench records phases — e.g.
/// vacation's low/high-contention pair — contributes both), makespans are
/// summed (the phases run back to back), and rates are recomputed from the
/// summed counts.
struct CellMetrics {
  std::uint64_t makespan = 0;
  std::uint64_t tx_started = 0;
  std::uint64_t tx_committed = 0;
  std::uint64_t tx_aborted = 0;
  std::uint64_t tx_cycles_committed = 0;
  std::uint64_t tx_cycles_wasted = 0;
  std::uint64_t buckets[6] = {};
  std::uint64_t cycles_total = 0;
  std::size_t runs = 0;

  double abort_rate_pct() const {
    return tx_started == 0 ? 0.0
                           : 100.0 * static_cast<double>(tx_aborted) /
                                 static_cast<double>(tx_started);
  }
  double wasted_cycle_pct() const {
    const std::uint64_t tx = tx_cycles_committed + tx_cycles_wasted;
    return tx == 0 ? 0.0
                   : 100.0 * static_cast<double>(tx_cycles_wasted) /
                         static_cast<double>(tx);
  }
  double bucket_pct(std::size_t b) const {
    return cycles_total == 0 ? 0.0
                             : 100.0 * static_cast<double>(buckets[b]) /
                                   static_cast<double>(cycles_total);
  }
};

CellMetrics cell_metrics(const JsonValue& cell) {
  CellMetrics m;
  for (const JsonValue& run : cell.obj("telemetry").objects("runs")) {
    const JsonValue& totals = run.obj("totals");
    m.makespan += run.u64("makespan");
    m.tx_started += totals.u64("tx_started");
    m.tx_committed += totals.u64("tx_committed");
    m.tx_aborted += totals.u64("tx_aborted");
    m.tx_cycles_committed += totals.u64("tx_cycles_committed");
    m.tx_cycles_wasted += totals.u64("tx_cycles_wasted");
    const JsonValue& cy = totals.obj("cycles");
    for (std::size_t b = 0; b < 6; ++b) m.buckets[b] += cy.u64(kBucketKeys[b]);
    m.cycles_total += cy.u64("total");
    m.runs++;
  }
  return m;
}

int axis_index(const std::vector<JsonValue>& axes, const std::string& name) {
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (axes[i].str("axis") == name) return static_cast<int>(i);
  }
  return -1;
}

/// "workload=genome/threads=4" for every axis except `skip` (-1 = none).
std::string coords_label(const std::vector<JsonValue>& axes,
                         const JsonValue& coords, int skip) {
  std::string label;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (static_cast<int>(a) == skip) continue;
    const std::string& name = axes[a].str("axis");
    if (!label.empty()) label += '/';
    label += name + '=' + coords.str(name);
  }
  return label;
}

void render_scaling_curves(std::string& out, const JsonValue& doc) {
  const std::vector<JsonValue>& axes = doc.objects("axes");
  const int t_axis = axis_index(axes, "threads");
  if (t_axis < 0) {
    out += "  (no 'threads' axis: scaling curves not applicable)\n";
    return;
  }
  const JsonValue& t_values =
      axes[static_cast<std::size_t>(t_axis)].arr("values");
  // Group cells by the non-thread coordinates, preserving grid order.
  struct Group {
    std::string label;
    std::vector<std::uint64_t> makespan;  // indexed by thread-value position
  };
  std::vector<Group> groups;
  for (const JsonValue& cell : doc.objects("cells")) {
    const JsonValue& coords = cell.obj("coords");
    const std::string key = coords_label(axes, coords, t_axis);
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.label == key) {
        g = &cand;
        break;
      }
    }
    if (!g) {
      groups.push_back(Group{key, std::vector<std::uint64_t>(t_values.size(), 0)});
      g = &groups.back();
    }
    const std::string& tv = coords.str("threads");
    for (std::size_t p = 0; p < t_values.size(); ++p) {
      if (t_values.str(p) == tv) {
        g->makespan[p] = cell_metrics(cell).makespan;
        break;
      }
    }
  }
  std::size_t wide = 24;
  for (const Group& g : groups) wide = std::max(wide, g.label.size());
  out += "  scaling curves (makespan by threads; speedup vs t=" +
         t_values.str(0) + "):\n";
  appendf(out, "    %-*s", static_cast<int>(wide), "cell group");
  for (std::size_t p = 0; p < t_values.size(); ++p) {
    appendf(out, "  %12s", ("t=" + t_values.str(p)).c_str());
  }
  for (std::size_t p = 1; p < t_values.size(); ++p) {
    appendf(out, "  %8s", ("x@" + t_values.str(p)).c_str());
  }
  out += '\n';
  for (const Group& g : groups) {
    appendf(out, "    %-*s", static_cast<int>(wide), g.label.c_str());
    for (std::size_t p = 0; p < g.makespan.size(); ++p) {
      appendf(out, "  %12llu", static_cast<unsigned long long>(g.makespan[p]));
    }
    for (std::size_t p = 1; p < g.makespan.size(); ++p) {
      const double speedup =
          g.makespan[p] == 0 ? 0.0
                             : static_cast<double>(g.makespan[0]) /
                                   static_cast<double>(g.makespan[p]);
      appendf(out, "  %8.2f", speedup);
    }
    out += '\n';
  }
}

}  // namespace

bool is_sweep_doc(const JsonValue& doc) {
  return doc.str("schema") == kSweepSchema;
}

std::string render_sweep_report(const JsonValue& doc,
                                const std::vector<Finding>& findings) {
  std::string out;
  const std::vector<JsonValue>& axes = doc.objects("axes");
  const std::vector<JsonValue>& cells = doc.objects("cells");
  appendf(out, "tsx_report sweep: %s bench=%s scale=%s schema=%s cells=%zu\n",
          doc.str("sweep").c_str(), doc.str("bench").c_str(),
          doc.str("scale").c_str(), doc.str("schema").c_str(), cells.size());
  out += "  grid: ";
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (a > 0) out += " x ";
    appendf(out, "%s(%zu)", axes[a].str("axis").c_str(),
            axes[a].arr("values").size());
  }
  out += "\n\n";

  std::size_t wide = 24;
  for (const JsonValue& cell : cells) {
    wide = std::max(wide, cell.str("cell").size());
  }
  appendf(out, "  %-*s  %4s  %12s  %11s  %11s\n", static_cast<int>(wide),
          "cell", "runs", "makespan", "abort-rate", "wasted-cyc");
  for (const JsonValue& cell : cells) {
    const CellMetrics m = cell_metrics(cell);
    appendf(out, "  %-*s  %4zu  %12llu  %10.2f%%  %10.2f%%\n",
            static_cast<int>(wide), cell.str("cell").c_str(), m.runs,
            static_cast<unsigned long long>(m.makespan), m.abort_rate_pct(),
            m.wasted_cycle_pct());
  }
  out += '\n';
  render_scaling_curves(out, doc);
  for (const Finding& f : findings) {
    out += "!! " + f.str() + '\n';
  }
  return out;
}

bool render_sweep_pivot(const JsonValue& doc, const std::string& axis_a,
                        const std::string& axis_b, const std::string& metric,
                        std::string& out) {
  const std::vector<JsonValue>& axes = doc.objects("axes");
  const int ia = axis_index(axes, axis_a);
  const int ib = axis_index(axes, axis_b);
  if (ia < 0 || ib < 0 || ia == ib) {
    out += "pivot: need two distinct axes of this grid (have:";
    for (const JsonValue& axis : axes) out += ' ' + axis.str("axis");
    out += ")\n";
    return false;
  }
  int bucket = -1;
  for (std::size_t b = 0; b < 6; ++b) {
    if (metric == kBucketKeys[b]) bucket = static_cast<int>(b);
  }
  if (bucket < 0 && metric != "abort-rate" && metric != "wasted" &&
      metric != "makespan" && metric != "commits") {
    out += "pivot: unknown metric '" + metric +
           "' (abort-rate, wasted, makespan, commits, or a cycle bucket: "
           "work, tx_committed, tx_wasted, lock_wait, fallback, mem_stall)\n";
    return false;
  }
  const JsonValue& va = axes[static_cast<std::size_t>(ia)].arr("values");
  const JsonValue& vb = axes[static_cast<std::size_t>(ib)].arr("values");
  std::vector<double> sum(va.size() * vb.size(), 0.0);
  std::vector<std::size_t> count(va.size() * vb.size(), 0);
  std::size_t averaged_over = 0;
  for (const JsonValue& cell : doc.objects("cells")) {
    const JsonValue& coords = cell.obj("coords");
    std::size_t pa = va.size(), pb = vb.size();
    const std::string& cva = coords.str(axis_a);
    const std::string& cvb = coords.str(axis_b);
    for (std::size_t p = 0; p < va.size(); ++p) {
      if (va.str(p) == cva) pa = p;
    }
    for (std::size_t p = 0; p < vb.size(); ++p) {
      if (vb.str(p) == cvb) pb = p;
    }
    if (pa == va.size() || pb == vb.size()) continue;
    const CellMetrics m = cell_metrics(cell);
    double v = 0.0;
    if (bucket >= 0) {
      v = m.bucket_pct(static_cast<std::size_t>(bucket));
    } else if (metric == "abort-rate") {
      v = m.abort_rate_pct();
    } else if (metric == "wasted") {
      v = m.wasted_cycle_pct();
    } else if (metric == "makespan") {
      v = static_cast<double>(m.makespan);
    } else {  // commits
      v = static_cast<double>(m.tx_committed);
    }
    sum[pa * vb.size() + pb] += v;
    count[pa * vb.size() + pb]++;
  }
  for (std::size_t k = 0; k < count.size(); ++k) {
    averaged_over = std::max(averaged_over, count[k]);
  }
  appendf(out, "  pivot %s[rows] x %s[cols], metric=%s%s:\n", axis_a.c_str(),
          axis_b.c_str(), metric.c_str(),
          averaged_over > 1 ? " (mean over remaining axes)" : "");
  std::size_t wide = axis_a.size();
  for (std::size_t p = 0; p < va.size(); ++p) {
    wide = std::max(wide, va.str(p).size());
  }
  appendf(out, "    %-*s", static_cast<int>(wide), axis_a.c_str());
  for (std::size_t p = 0; p < vb.size(); ++p) {
    appendf(out, "  %12s", vb.str(p).c_str());
  }
  out += '\n';
  for (std::size_t pa = 0; pa < va.size(); ++pa) {
    appendf(out, "    %-*s", static_cast<int>(wide), va.str(pa).c_str());
    for (std::size_t pb = 0; pb < vb.size(); ++pb) {
      const std::size_t k = pa * vb.size() + pb;
      if (count[k] == 0) {
        appendf(out, "  %12s", "-");
      } else if (metric == "makespan" || metric == "commits") {
        appendf(out, "  %12.0f", sum[k] / static_cast<double>(count[k]));
      } else {
        appendf(out, "  %11.2f%%", sum[k] / static_cast<double>(count[k]));
      }
    }
    out += '\n';
  }
  return true;
}

int render_sweep_diff(const JsonValue& base, const JsonValue& cur,
                      const DiffThresholds& thr, std::string& out) {
  int failures = 0;
  appendf(out, "tsx_report sweep diff: base=%s (bench=%s), current=%s (bench=%s)\n",
          base.str("sweep").c_str(), base.str("bench").c_str(),
          cur.str("sweep").c_str(), cur.str("bench").c_str());
  appendf(out, "thresholds: abort-rate +%.2fpp, wasted-cycles +%.2fpp\n",
          thr.abort_rate_pp, thr.wasted_cycle_pp);
  // The grids must describe the same axes with the same value lists (order
  // included — expansion order names the cells).
  const std::vector<JsonValue>& base_axes = base.objects("axes");
  const std::vector<JsonValue>& cur_axes = cur.objects("axes");
  if (base_axes.size() != cur_axes.size()) {
    appendf(out, "AXIS MISMATCH: baseline has %zu axes, current has %zu\n",
            base_axes.size(), cur_axes.size());
    failures++;
  } else {
    for (std::size_t a = 0; a < base_axes.size(); ++a) {
      const JsonValue& ba = base_axes[a];
      const JsonValue& ca = cur_axes[a];
      if (ba.str("axis") != ca.str("axis")) {
        appendf(out, "AXIS MISMATCH: axis %zu is '%s' in baseline, '%s' in "
                     "current\n",
                a, ba.str("axis").c_str(), ca.str("axis").c_str());
        failures++;
        continue;
      }
      const JsonValue& bv = ba.arr("values");
      const JsonValue& cv = ca.arr("values");
      bool same = bv.size() == cv.size();
      for (std::size_t p = 0; same && p < bv.size(); ++p) {
        same = bv.str(p) == cv.str(p);
      }
      if (!same) {
        appendf(out, "AXIS MISMATCH: axis '%s' value lists differ\n",
                ba.str("axis").c_str());
        failures++;
      }
    }
  }
  const std::vector<JsonValue>& base_cells = base.objects("cells");
  const std::vector<JsonValue>& cur_cells = cur.objects("cells");
  for (const JsonValue& c : cur_cells) {
    const std::string& label = c.str("cell");
    const JsonValue* b = find_labeled(base_cells, "cell", label);
    if (!b) {
      appendf(out,
              "cell %s: MISMATCH — present in current but not in baseline\n",
              label.c_str());
      failures++;
      continue;
    }
    failures += diff_run_sets(b->obj("telemetry"), c.obj("telemetry"), thr,
                              "cell " + label + ": ", out);
  }
  for (const JsonValue& b : base_cells) {
    const std::string& label = b.str("cell");
    if (!find_labeled(cur_cells, "cell", label)) {
      appendf(out,
              "cell %s: MISMATCH — present in baseline but missing from "
              "current\n",
              label.c_str());
      failures++;
    }
  }
  appendf(out, "%d failure(s) (regressions or grid mismatches)\n", failures);
  return failures;
}

}  // namespace tsxhpc::sim
