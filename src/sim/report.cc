#include "sim/report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "sim/invariants.h"

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

/// Index of the largest element (ties to the lowest index); -1 if empty.
int argmax(const JsonValue& arr) {
  int best = -1;
  std::uint64_t best_v = 0;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const std::uint64_t v = arr.at(i).as_u64();
    if (best < 0 || v > best_v) {
      best = static_cast<int>(i);
      best_v = v;
    }
  }
  return best;
}

void render_abort_tree(std::string& out, const JsonValue& totals) {
  const std::uint64_t started = totals["tx_started"].as_u64();
  const std::uint64_t committed = totals["tx_committed"].as_u64();
  const std::uint64_t aborted = totals["tx_aborted"].as_u64();
  appendf(out, "  transactions: started=%llu\n",
          static_cast<unsigned long long>(started));
  const double of_started = started == 0 ? 0.0 : 100.0 / static_cast<double>(started);
  appendf(out, "  |- committed  %12llu  (%5.1f%%)\n",
          static_cast<unsigned long long>(committed),
          static_cast<double>(committed) * of_started);
  appendf(out, "  `- aborted    %12llu  (%5.1f%%)\n",
          static_cast<unsigned long long>(aborted),
          static_cast<double>(aborted) * of_started);
  const JsonValue& causes = totals["aborts_by_cause"];
  const auto& members = causes.members();
  std::size_t shown = 0, nonzero = 0;
  for (const auto& [k, v] : members) {
    if (v.as_u64() != 0) nonzero++;
  }
  for (const auto& [k, v] : members) {
    const std::uint64_t n = v.as_u64();
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

/// Concurrency-control block (v7 artifacts; absent on v6 and earlier).
/// Region-level counters from the CcBackend seam: attempt chain, abort
/// classes, and the scheme-specific extras (TicToc rts extensions, MVCC
/// snapshot/version/GC accounting) — rendered only when nonzero so sgl/tsx
/// rows stay compact.
void render_cc(std::string& out, const JsonValue& run) {
  const JsonValue& cc = run["cc"];
  if (!cc.is_object()) return;
  appendf(out,
          "  cc [%s]: starts=%llu commits=%llu aborts=%llu (%.2f%%)\n",
          cc["scheme"].as_string().c_str(),
          static_cast<unsigned long long>(cc["starts"].as_u64()),
          static_cast<unsigned long long>(cc["commits"].as_u64()),
          static_cast<unsigned long long>(cc["aborts"].as_u64()),
          cc["abort_rate_pct"].as_double());
  const JsonValue& cls = cc["aborts_by_class"];
  if (cls.is_object() && cc["aborts"].as_u64() != 0) {
    appendf(
        out,
        "    abort classes: read-validation=%llu lock-acquire=%llu "
        "commit-validation=%llu\n",
        static_cast<unsigned long long>(cls["read_validation"].as_u64()),
        static_cast<unsigned long long>(cls["lock_acquire"].as_u64()),
        static_cast<unsigned long long>(cls["commit_validation"].as_u64()));
  }
  if (cc["read_set_extensions"].as_u64() != 0) {
    appendf(out, "    rts extensions: %llu\n",
            static_cast<unsigned long long>(
                cc["read_set_extensions"].as_u64()));
  }
  if (cc["snapshot_commits"].as_u64() != 0 ||
      cc["versions_created"].as_u64() != 0) {
    appendf(out,
            "    mvcc: snapshot-commits=%llu versions=%llu chain-hops=%llu "
            "depth-max=%llu gc(runs=%llu reclaims=%llu)\n",
            static_cast<unsigned long long>(cc["snapshot_commits"].as_u64()),
            static_cast<unsigned long long>(cc["versions_created"].as_u64()),
            static_cast<unsigned long long>(
                cc["version_chain_hops"].as_u64()),
            static_cast<unsigned long long>(
                cc["version_chain_depth_max"].as_u64()),
            static_cast<unsigned long long>(cc["gc_runs"].as_u64()),
            static_cast<unsigned long long>(cc["gc_reclaims"].as_u64()));
  }
}

void render_conflict_lines(std::string& out, const JsonValue& run,
                           std::size_t top) {
  const JsonValue& lines = run["conflict_lines"];
  const std::uint64_t total = run["conflict_lines_total"].as_u64();
  if (lines.size() == 0) {
    out += "  top conflicting lines: none\n";
    return;
  }
  appendf(out, "  top conflicting lines (%zu of %llu):\n",
          std::min<std::size_t>(lines.size(), top),
          static_cast<unsigned long long>(total));
  for (std::size_t i = 0; i < lines.size() && i < top; ++i) {
    const JsonValue& l = lines.at(i);
    const std::string& object = l["object"].as_string();
    const int agg = argmax(l["by_aggressor"]);
    const int vic = argmax(l["by_victim"]);
    char agg_s[16] = "-", vic_s[16] = "-";
    if (agg >= 0) std::snprintf(agg_s, sizeof(agg_s), "t%d", agg);
    if (vic >= 0) std::snprintf(vic_s, sizeof(vic_s), "t%d", vic);
    appendf(out,
            "    %-18s %-20s dooms=%-6llu (w=%llu r=%llu) "
            "top-aggressor=%s top-victim=%s\n",
            l["line"].as_string().c_str(),
            object.empty() ? "(unnamed)" : object.c_str(),
            static_cast<unsigned long long>(l["dooms"].as_u64()),
            static_cast<unsigned long long>(l["write_dooms"].as_u64()),
            static_cast<unsigned long long>(l["read_dooms"].as_u64()),
            agg_s, vic_s);
  }
}

void render_capacity_lines(std::string& out, const JsonValue& run,
                           std::size_t top) {
  const JsonValue& lines = run["capacity_lines"];
  if (lines.size() == 0) return;
  appendf(out, "  capacity-doomed lines (%zu of %llu):\n",
          std::min<std::size_t>(lines.size(), top),
          static_cast<unsigned long long>(run["capacity_lines_total"].as_u64()));
  for (std::size_t i = 0; i < lines.size() && i < top; ++i) {
    const JsonValue& l = lines.at(i);
    const std::string& object = l["object"].as_string();
    appendf(out, "    %-18s %-20s write-evict=%llu read-evict=%llu\n",
            l["line"].as_string().c_str(),
            object.empty() ? "(unnamed)" : object.c_str(),
            static_cast<unsigned long long>(l["write_evict_dooms"].as_u64()),
            static_cast<unsigned long long>(l["read_evict_dooms"].as_u64()));
  }
}

/// Per-level hit/miss/evict table (v3 artifacts; absent on v2 and earlier).
void render_cache_levels(std::string& out, const JsonValue& run) {
  const JsonValue& levels = run["cache_levels"];
  if (levels.size() == 0) return;
  out +=
      "  cache hierarchy (run totals):\n"
      "    level        served        misses     evictions  stall-cycles\n";
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const JsonValue& l = levels.at(i);
    appendf(out, "    %-5s  %12llu  %12llu  %12llu  %12llu\n",
            l["level"].as_string().c_str(),
            static_cast<unsigned long long>(l["served"].as_u64()),
            static_cast<unsigned long long>(l["misses"].as_u64()),
            static_cast<unsigned long long>(l["evictions"].as_u64()),
            static_cast<unsigned long long>(l["stall_cycles"].as_u64()));
  }
}

/// Topology-resolved view (v6 artifacts). Rendered only for machines with
/// an actual interconnect (more than one socket or slice) — the default
/// 1-socket/1-slice reports read exactly as they always did.
void render_topology(std::string& out, const JsonValue& run) {
  const JsonValue& topo = run["topology"];
  if (!topo.is_object()) return;
  const std::uint64_t sockets = topo["sockets"].as_u64();
  const std::uint64_t slices = topo["slices"].as_u64();
  if (sockets <= 1 && slices <= 1) return;
  appendf(out,
          "  topology: %llu socket(s) x %llu cores, %llu LLC slice(s), "
          "map=%s (hop cycles: slice=%llu socket=%llu)\n",
          static_cast<unsigned long long>(sockets),
          static_cast<unsigned long long>(topo["cores_per_socket"].as_u64()),
          static_cast<unsigned long long>(slices),
          topo["map"].as_string().c_str(),
          static_cast<unsigned long long>(topo["lat_hop_slice"].as_u64()),
          static_cast<unsigned long long>(topo["lat_hop_socket"].as_u64()));
  const JsonValue& ss = topo["slice_stats"];
  for (std::size_t s = 0; s < ss.size(); ++s) {
    const JsonValue& sl = ss.at(s);
    appendf(out,
            "    slice s%zu: hits=%llu misses=%llu evictions=%llu "
            "xfers=%llu\n",
            s, static_cast<unsigned long long>(sl["hits"].as_u64()),
            static_cast<unsigned long long>(sl["misses"].as_u64()),
            static_cast<unsigned long long>(sl["evictions"].as_u64()),
            static_cast<unsigned long long>(sl["xfers"].as_u64()));
  }
  const JsonValue& so = topo["socket_stats"];
  for (std::size_t s = 0; s < so.size(); ++s) {
    const JsonValue& sk = so.at(s);
    appendf(out,
            "    socket %zu: accesses=%llu dram(local=%llu remote=%llu) "
            "hops(slice=%llu socket=%llu)\n",
            s, static_cast<unsigned long long>(sk["accesses"].as_u64()),
            static_cast<unsigned long long>(sk["dram_local"].as_u64()),
            static_cast<unsigned long long>(sk["dram_remote"].as_u64()),
            static_cast<unsigned long long>(sk["slice_hops"].as_u64()),
            static_cast<unsigned long long>(sk["socket_hops"].as_u64()));
  }
  const JsonValue& tot = run["totals"];
  if (tot["hop_cycles"].as_u64() != 0) {
    appendf(out, "    hop cycles: %llu (slice hops=%llu, socket hops=%llu)\n",
            static_cast<unsigned long long>(tot["hop_cycles"].as_u64()),
            static_cast<unsigned long long>(tot["slice_hops"].as_u64()),
            static_cast<unsigned long long>(tot["socket_hops"].as_u64()));
  }
}

constexpr const char* kBucketKeys[] = {"work",      "tx_committed", "tx_wasted",
                                       "lock_wait", "fallback",     "mem_stall"};

void render_cycle_table(std::string& out, const JsonValue& run) {
  const JsonValue& threads = run["threads"];
  if (threads.size() == 0 || !threads.at(0).has("cycles")) return;
  out +=
      "  cycle accounting (cycles per thread):\n"
      "    tid          work  tx_committed     tx_wasted     lock_wait"
      "      fallback     mem_stall         total\n";
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const JsonValue& th = threads.at(t);
    const JsonValue& cy = th["cycles"];
    appendf(out, "    %3llu",
            static_cast<unsigned long long>(th["tid"].as_u64()));
    for (const char* k : kBucketKeys) {
      appendf(out, "  %12llu", static_cast<unsigned long long>(cy[k].as_u64()));
    }
    appendf(out, "  %12llu\n",
            static_cast<unsigned long long>(cy["total"].as_u64()));
  }
  const JsonValue& cy = run["totals"]["cycles"];
  out += "    sum";
  for (const char* k : kBucketKeys) {
    appendf(out, "  %12llu", static_cast<unsigned long long>(cy[k].as_u64()));
  }
  appendf(out, "  %12llu\n",
          static_cast<unsigned long long>(cy["total"].as_u64()));
}

void render_locks(std::string& out, const JsonValue& run) {
  const JsonValue& locks = run["locks"];
  if (locks.size() == 0) return;
  out += "  lock sites:\n";
  for (std::size_t i = 0; i < locks.size(); ++i) {
    const JsonValue& l = locks.at(i);
    appendf(out,
            "    %-14s %-8s acquires=%-6llu elision=%5.1f%% "
            "tx-cycles(committed=%llu wasted=%llu) fallback-hold=%llu "
            "wait=%llu\n",
            l["site"].as_string().c_str(), l["kind"].as_string().c_str(),
            static_cast<unsigned long long>(l["acquires"].as_u64()),
            l["elision_rate_pct"].as_double(),
            static_cast<unsigned long long>(l["tx_cycles_committed"].as_u64()),
            static_cast<unsigned long long>(l["tx_cycles_wasted"].as_u64()),
            static_cast<unsigned long long>(l["fallback_hold_cycles"].as_u64()),
            static_cast<unsigned long long>(l["wait_cycles"].as_u64()));
    // TxPolicy decision counts (schema v4+; older artifacts lack the key).
    // Only render sites the policy actually touched, so plain spin/futex
    // rows stay one line.
    const JsonValue& pd = l["policy"];
    if (pd.is_object()) {
      std::uint64_t total = 0;
      for (const char* k :
           {"retries", "backoffs", "lock_waits", "fallbacks", "skips"}) {
        total += pd[k].as_u64();
      }
      if (total > 0) {
        appendf(out,
                "      policy: retries=%llu backoffs=%llu lock-waits=%llu "
                "fallbacks=%llu skips=%llu\n",
                static_cast<unsigned long long>(pd["retries"].as_u64()),
                static_cast<unsigned long long>(pd["backoffs"].as_u64()),
                static_cast<unsigned long long>(pd["lock_waits"].as_u64()),
                static_cast<unsigned long long>(pd["fallbacks"].as_u64()),
                static_cast<unsigned long long>(pd["skips"].as_u64()));
      }
    }
  }
}

}  // namespace

bool is_telemetry_doc(const JsonValue& doc) {
  return doc.is_object() && doc["runs"].is_array() &&
         doc["schema"].as_string().rfind("tsxhpc-telemetry-", 0) == 0;
}

std::string render_report(const JsonValue& doc, const ReportOptions& opt) {
  std::string out;
  appendf(out, "tsx_report: bench=%s schema=%s runs=%zu\n",
          doc["bench"].as_string().c_str(), doc["schema"].as_string().c_str(),
          doc["runs"].size());
  const JsonValue& runs = doc["runs"];
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const JsonValue& run = runs.at(i);
    const JsonValue& totals = run["totals"];
    appendf(out, "\nrun %s: threads=%llu makespan=%llu%s\n",
            run["label"].as_string().c_str(),
            static_cast<unsigned long long>(run["num_threads"].as_u64()),
            static_cast<unsigned long long>(run["makespan"].as_u64()),
            run["complete"].as_bool() ? "" : " (incomplete)");
    render_abort_tree(out, totals);
    appendf(out, "  abort rate: %.2f%% of started transactions\n",
            totals["abort_rate_pct"].as_double());
    appendf(out, "  wasted cycles: %.2f%% of transactional cycles\n",
            totals["wasted_cycle_pct"].as_double());
    render_cc(out, run);
    render_conflict_lines(out, run, opt.top_lines);
    render_capacity_lines(out, run, opt.top_lines);
    render_cache_levels(out, run);
    render_topology(out, run);
    render_cycle_table(out, run);
    for (const Finding& f : check_run(run)) {
      out += "  !! " + f.str() + '\n';
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
int diff_run_sets(const JsonValue& base_runs, const JsonValue& cur_runs,
                  const DiffThresholds& thr, const std::string& where,
                  std::string& out) {
  int failures = 0;
  for (std::size_t i = 0; i < cur_runs.size(); ++i) {
    const JsonValue& c = cur_runs.at(i);
    const std::string& label = c["label"].as_string();
    const JsonValue* b = nullptr;
    for (std::size_t j = 0; j < base_runs.size(); ++j) {
      if (base_runs.at(j)["label"].as_string() == label) {
        b = &base_runs.at(j);
        break;
      }
    }
    if (!b) {
      appendf(out,
              "%srun %s: MISMATCH — present in current but not in baseline "
              "(label-set mismatch is a failure)\n",
              where.c_str(), label.c_str());
      failures++;
      continue;
    }
    const double abort_b = (*b)["totals"]["abort_rate_pct"].as_double();
    const double abort_c = c["totals"]["abort_rate_pct"].as_double();
    const double waste_b = (*b)["totals"]["wasted_cycle_pct"].as_double();
    const double waste_c = c["totals"]["wasted_cycle_pct"].as_double();
    const std::uint64_t mk_b = (*b)["makespan"].as_u64();
    const std::uint64_t mk_c = c["makespan"].as_u64();
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
  for (std::size_t j = 0; j < base_runs.size(); ++j) {
    const std::string& label = base_runs.at(j)["label"].as_string();
    bool found = false;
    for (std::size_t i = 0; i < cur_runs.size() && !found; ++i) {
      found = cur_runs.at(i)["label"].as_string() == label;
    }
    if (!found) {
      appendf(out,
              "%srun %s: MISMATCH — present in baseline but missing from "
              "current (label-set mismatch is a failure)\n",
              where.c_str(), label.c_str());
      failures++;
    }
  }
  return failures;
}

/// Comparing artifacts across telemetry schema revisions silently hides (or
/// invents) fields, so a schema-version mismatch is a loud counted failure
/// naming both versions — the fix is refreshing the stale side, never a
/// partial comparison. Used for flat diffs and per-cell embedded telemetry.
int diff_schemas(const JsonValue& base, const JsonValue& cur,
                 const std::string& where, std::string& out) {
  const std::string& sb = base["schema"].as_string();
  const std::string& sc = cur["schema"].as_string();
  if (sb == sc) return 0;
  appendf(out,
          "%sschema: MISMATCH — baseline is '%s' but current is '%s' "
          "(cross-schema comparison is a failure; refresh the stale "
          "artifact)\n",
          where.c_str(), sb.c_str(), sc.c_str());
  return 1;
}

}  // namespace

int render_diff(const JsonValue& base, const JsonValue& cur,
                const DiffThresholds& thr, std::string& out) {
  appendf(out, "tsx_report diff: base bench=%s, current bench=%s\n",
          base["bench"].as_string().c_str(),
          cur["bench"].as_string().c_str());
  appendf(out,
          "thresholds: abort-rate +%.2fpp, wasted-cycles +%.2fpp\n",
          thr.abort_rate_pp, thr.wasted_cycle_pp);
  int failures = diff_schemas(base, cur, "", out);
  failures += diff_run_sets(base["runs"], cur["runs"], thr, "", out);
  appendf(out, "%d failure(s) (regressions, schema or label-set mismatches)\n",
          failures);
  return failures;
}

// ---------------------------------------------------------------------------
// Per-set heatmaps (telemetry v5 `set_stats` block)
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

std::vector<std::uint64_t> set_column(const JsonValue& level,
                                      const char* key) {
  const JsonValue& arr = level[key];
  std::vector<std::uint64_t> v(arr.size(), 0);
  for (std::size_t i = 0; i < arr.size(); ++i) v[i] = arr.at(i).as_u64();
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
  const JsonValue& runs = doc["runs"];
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    const JsonValue& run = runs.at(ri);
    const JsonValue& ss = run["set_stats"];
    if (!ss.is_object()) continue;
    any_block = true;
    appendf(out, "\nrun %s: per-set heatmaps (line_bytes=%llu)\n",
            run["label"].as_string().c_str(),
            static_cast<unsigned long long>(ss["line_bytes"].as_u64()));
    const JsonValue& levels = ss["levels"];
    const JsonValue& objects = ss["objects"];
    for (std::size_t li = 0; li < levels.size(); ++li) {
      const JsonValue& lv = levels.at(li);
      const std::string& name = lv["level"].as_string();
      if (!level_matches(name, level_filter)) continue;
      any_level = true;
      const std::uint64_t sets = lv["sets"].as_u64();
      appendf(out, "  level %s: %llu sets x %llu ways\n", name.c_str(),
              static_cast<unsigned long long>(sets),
              static_cast<unsigned long long>(lv["ways"].as_u64()));
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
        for (std::size_t oi = 0; oi < objects.size(); ++oi) {
          const JsonValue& o = objects.at(oi);
          const std::uint64_t start =
              is_llc ? o["llc_set_start"].as_u64() : o["l1_set_start"].as_u64();
          const std::uint64_t covered = is_llc ? o["llc_sets_covered"].as_u64()
                                               : o["l1_sets_covered"].as_u64();
          if (!span_covers(start, covered, sets, s)) continue;
          if (!names.empty()) names += ", ";
          names += o["name"].as_string();
        }
        appendf(out, "  objects: %s\n", names.empty() ? "-" : names.c_str());
      }
    }
  }
  if (!any_block) {
    appendf(out, "no set_stats block in this artifact — re-run the bench "
                 "with --set-stats (telemetry v6)\n");
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
  const JsonValue& runs = cell["telemetry"]["runs"];
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const JsonValue& run = runs.at(i);
    const JsonValue& totals = run["totals"];
    m.makespan += run["makespan"].as_u64();
    m.tx_started += totals["tx_started"].as_u64();
    m.tx_committed += totals["tx_committed"].as_u64();
    m.tx_aborted += totals["tx_aborted"].as_u64();
    m.tx_cycles_committed += totals["tx_cycles_committed"].as_u64();
    m.tx_cycles_wasted += totals["tx_cycles_wasted"].as_u64();
    const JsonValue& cy = totals["cycles"];
    for (std::size_t b = 0; b < 6; ++b) {
      m.buckets[b] += cy[kBucketKeys[b]].as_u64();
    }
    m.cycles_total += cy["total"].as_u64();
    m.runs++;
  }
  return m;
}

int axis_index(const JsonValue& axes, const std::string& name) {
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (axes.at(i)["axis"].as_string() == name) return static_cast<int>(i);
  }
  return -1;
}

/// "workload=genome/threads=4" for every axis except `skip` (-1 = none).
std::string coords_label(const JsonValue& axes, const JsonValue& coords,
                         int skip) {
  std::string label;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (static_cast<int>(a) == skip) continue;
    const std::string& name = axes.at(a)["axis"].as_string();
    if (!label.empty()) label += '/';
    label += name + '=' + coords[name].as_string();
  }
  return label;
}

void render_scaling_curves(std::string& out, const JsonValue& doc) {
  const JsonValue& axes = doc["axes"];
  const int t_axis = axis_index(axes, "threads");
  if (t_axis < 0) {
    out += "  (no 'threads' axis: scaling curves not applicable)\n";
    return;
  }
  const JsonValue& t_values = axes.at(static_cast<std::size_t>(t_axis))["values"];
  // Group cells by the non-thread coordinates, preserving grid order.
  struct Group {
    std::string label;
    std::vector<std::uint64_t> makespan;  // indexed by thread-value position
  };
  std::vector<Group> groups;
  const JsonValue& cells = doc["cells"];
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const JsonValue& cell = cells.at(i);
    const std::string key = coords_label(axes, cell["coords"], t_axis);
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
    const std::string& tv =
        cell["coords"][axes.at(static_cast<std::size_t>(t_axis))["axis"]
                           .as_string()]
            .as_string();
    for (std::size_t p = 0; p < t_values.size(); ++p) {
      if (t_values.at(p).as_string() == tv) {
        g->makespan[p] = cell_metrics(cell).makespan;
        break;
      }
    }
  }
  std::size_t wide = 24;
  for (const Group& g : groups) wide = std::max(wide, g.label.size());
  out += "  scaling curves (makespan by threads; speedup vs t=" +
         t_values.at(0).as_string() + "):\n";
  appendf(out, "    %-*s", static_cast<int>(wide), "cell group");
  for (std::size_t p = 0; p < t_values.size(); ++p) {
    appendf(out, "  %12s", ("t=" + t_values.at(p).as_string()).c_str());
  }
  for (std::size_t p = 1; p < t_values.size(); ++p) {
    appendf(out, "  %8s", ("x@" + t_values.at(p).as_string()).c_str());
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
  return doc.is_object() && doc["cells"].is_array() &&
         doc["schema"].as_string() == "tsxhpc-sweep-v1";
}

std::string render_sweep_report(const JsonValue& doc) {
  std::string out;
  const JsonValue& axes = doc["axes"];
  const JsonValue& cells = doc["cells"];
  appendf(out, "tsx_report sweep: %s bench=%s scale=%s schema=%s cells=%zu\n",
          doc["sweep"].as_string().c_str(), doc["bench"].as_string().c_str(),
          doc["scale"].as_string().c_str(), doc["schema"].as_string().c_str(),
          cells.size());
  out += "  grid: ";
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (a > 0) out += " x ";
    appendf(out, "%s(%zu)", axes.at(a)["axis"].as_string().c_str(),
            axes.at(a)["values"].size());
  }
  out += "\n\n";

  std::size_t wide = 24;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    wide = std::max(wide, cells.at(i)["cell"].as_string().size());
  }
  appendf(out, "  %-*s  %4s  %12s  %11s  %11s\n", static_cast<int>(wide),
          "cell", "runs", "makespan", "abort-rate", "wasted-cyc");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const JsonValue& cell = cells.at(i);
    const CellMetrics m = cell_metrics(cell);
    appendf(out, "  %-*s  %4zu  %12llu  %10.2f%%  %10.2f%%\n",
            static_cast<int>(wide), cell["cell"].as_string().c_str(), m.runs,
            static_cast<unsigned long long>(m.makespan), m.abort_rate_pct(),
            m.wasted_cycle_pct());
  }
  out += '\n';
  render_scaling_curves(out, doc);
  for (const Finding& f : check_invariants(doc)) {
    out += "!! " + f.str() + '\n';
  }
  return out;
}

bool render_sweep_pivot(const JsonValue& doc, const std::string& axis_a,
                        const std::string& axis_b, const std::string& metric,
                        std::string& out) {
  const JsonValue& axes = doc["axes"];
  const int ia = axis_index(axes, axis_a);
  const int ib = axis_index(axes, axis_b);
  if (ia < 0 || ib < 0 || ia == ib) {
    out += "pivot: need two distinct axes of this grid (have:";
    for (std::size_t a = 0; a < axes.size(); ++a) {
      out += ' ' + axes.at(a)["axis"].as_string();
    }
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
  const JsonValue& va = axes.at(static_cast<std::size_t>(ia))["values"];
  const JsonValue& vb = axes.at(static_cast<std::size_t>(ib))["values"];
  std::vector<double> sum(va.size() * vb.size(), 0.0);
  std::vector<std::size_t> count(va.size() * vb.size(), 0);
  const JsonValue& cells = doc["cells"];
  std::size_t averaged_over = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const JsonValue& cell = cells.at(i);
    const JsonValue& coords = cell["coords"];
    std::size_t pa = va.size(), pb = vb.size();
    const std::string& cva = coords[axis_a].as_string();
    const std::string& cvb = coords[axis_b].as_string();
    for (std::size_t p = 0; p < va.size(); ++p) {
      if (va.at(p).as_string() == cva) pa = p;
    }
    for (std::size_t p = 0; p < vb.size(); ++p) {
      if (vb.at(p).as_string() == cvb) pb = p;
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
    wide = std::max(wide, va.at(p).as_string().size());
  }
  appendf(out, "    %-*s", static_cast<int>(wide), axis_a.c_str());
  for (std::size_t p = 0; p < vb.size(); ++p) {
    appendf(out, "  %12s", vb.at(p).as_string().c_str());
  }
  out += '\n';
  for (std::size_t pa = 0; pa < va.size(); ++pa) {
    appendf(out, "    %-*s", static_cast<int>(wide),
            va.at(pa).as_string().c_str());
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
          base["sweep"].as_string().c_str(), base["bench"].as_string().c_str(),
          cur["sweep"].as_string().c_str(), cur["bench"].as_string().c_str());
  appendf(out, "thresholds: abort-rate +%.2fpp, wasted-cycles +%.2fpp\n",
          thr.abort_rate_pp, thr.wasted_cycle_pp);
  failures += diff_schemas(base, cur, "", out);
  // The grids must describe the same axes with the same value lists (order
  // included — expansion order names the cells).
  const JsonValue& base_axes = base["axes"];
  const JsonValue& cur_axes = cur["axes"];
  if (base_axes.size() != cur_axes.size()) {
    appendf(out, "AXIS MISMATCH: baseline has %zu axes, current has %zu\n",
            base_axes.size(), cur_axes.size());
    failures++;
  } else {
    for (std::size_t a = 0; a < base_axes.size(); ++a) {
      const JsonValue& ba = base_axes.at(a);
      const JsonValue& ca = cur_axes.at(a);
      if (ba["axis"].as_string() != ca["axis"].as_string()) {
        appendf(out, "AXIS MISMATCH: axis %zu is '%s' in baseline, '%s' in "
                     "current\n",
                a, ba["axis"].as_string().c_str(),
                ca["axis"].as_string().c_str());
        failures++;
        continue;
      }
      const JsonValue& bv = ba["values"];
      const JsonValue& cv = ca["values"];
      bool same = bv.size() == cv.size();
      for (std::size_t p = 0; same && p < bv.size(); ++p) {
        same = bv.at(p).as_string() == cv.at(p).as_string();
      }
      if (!same) {
        appendf(out, "AXIS MISMATCH: axis '%s' value lists differ\n",
                ba["axis"].as_string().c_str());
        failures++;
      }
    }
  }
  const JsonValue& base_cells = base["cells"];
  const JsonValue& cur_cells = cur["cells"];
  for (std::size_t i = 0; i < cur_cells.size(); ++i) {
    const JsonValue& c = cur_cells.at(i);
    const std::string& label = c["cell"].as_string();
    const JsonValue* b = nullptr;
    for (std::size_t j = 0; j < base_cells.size(); ++j) {
      if (base_cells.at(j)["cell"].as_string() == label) {
        b = &base_cells.at(j);
        break;
      }
    }
    if (!b) {
      appendf(out,
              "cell %s: MISMATCH — present in current but not in baseline\n",
              label.c_str());
      failures++;
      continue;
    }
    // Embedded telemetry rides verbatim per cell, so a schema bump shows up
    // here (the grid wrapper stays tsxhpc-sweep-v1 across telemetry bumps).
    failures += diff_schemas((*b)["telemetry"], c["telemetry"],
                             "cell " + label + ": ", out);
    failures += diff_run_sets((*b)["telemetry"]["runs"],
                              c["telemetry"]["runs"], thr,
                              "cell " + label + ": ", out);
  }
  for (std::size_t j = 0; j < base_cells.size(); ++j) {
    const std::string& label = base_cells.at(j)["cell"].as_string();
    bool found = false;
    for (std::size_t i = 0; i < cur_cells.size() && !found; ++i) {
      found = cur_cells.at(i)["cell"].as_string() == label;
    }
    if (!found) {
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
