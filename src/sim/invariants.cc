#include "sim/invariants.h"

#include <cstdlib>
#include <string_view>

#include "sim/telemetry.h"

namespace tsxhpc::sim {

namespace {

using u64 = std::uint64_t;

/// Collects the findings of one run; the registry sets `family` before
/// each rule family runs, and every rule name is prefixed with it.
struct Check {
  std::string cell;
  std::string run;
  std::vector<Finding>& out;
  const char* family = "";

  void eq(const std::string& subject, const std::string& rule, u64 a, u64 b) {
    if (a != b) add(subject, rule, a, b);
  }
  void le(const std::string& subject, const std::string& rule, u64 a, u64 b) {
    if (a > b) add(subject, rule, a, b);
  }
  void ge(const std::string& subject, const std::string& rule, u64 a, u64 b) {
    if (a < b) add(subject, rule, a, b);
  }
  void add(const std::string& subject, const std::string& rule, u64 a,
           u64 b) {
    out.push_back({cell, run, subject, std::string(family) + ": " + rule, a,
                   b});
  }
};

/// Sum of an array's numbers or of an object's number members.
u64 sum(const JsonValue& v) {
  u64 s = 0;
  for (const JsonValue& x : v.items()) s += x.as_u64();
  for (const auto& [k, x] : v.members()) s += x.as_u64();
  return s;
}

/// Sum of `key` over an array of objects.
u64 sum_field(const JsonValue& arr, const char* key) {
  u64 s = 0;
  for (const JsonValue& v : arr.items()) s += v[key].as_u64();
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Per-set column `col` summed over the set_stats levels of one group:
/// "l1" (every "l1.c<i>"), "llc" (the LLC or every "llc.s<i>" slice), or
/// "" for all levels.
u64 sum_levels(const JsonValue& levels, const std::string& group,
               const char* col) {
  u64 s = 0;
  for (const JsonValue& l : levels.items()) {
    const std::string& name = l["level"].as_string();
    if (group.empty() || name == group || starts_with(name, group + ".")) {
      s += sum(l[col]);
    }
  }
  return s;
}

std::string thread_name(const JsonValue& th) {
  return "thread " + std::to_string(th["tid"].as_u64());
}

std::string sum_rule(const std::string& col, const std::string& total) {
  return "sum(" + col + ") == " + total;
}

/// LLC event columns (per set, per slice) and the run totals they add up to.
constexpr const char* kLlcColumns[][2] = {{"hits", "llc_hits"},
                                          {"misses", "llc_misses"},
                                          {"evictions", "llc_evictions"},
                                          {"xfers", "xfers_in"}};

// --- Rule families ---------------------------------------------------------

/// Cycle accounting: the six buckets partition each thread's clock, and the
/// per-level stall split partitions the mem_stall bucket.
void check_cycles(const JsonValue& run, Check& c) {
  for (const JsonValue& th : run["threads"].items()) {
    const JsonValue& cy = th["cycles"];
    if (!cy.is_object()) continue;
    const std::string who = thread_name(th);
    u64 buckets = 0;
    for (const char* k : {"work", "tx_committed", "tx_wasted", "lock_wait",
                          "fallback", "mem_stall"}) {
      buckets += cy[k].as_u64();
    }
    const u64 total = cy["total"].as_u64();
    c.eq(who, "sum(cycle buckets) == cycles.total", buckets, total);
    c.eq(who, "cycles.total == end_cycle", total, th["end_cycle"].as_u64());
    c.eq(who, "sum(mem_stall_levels) == cycles.mem_stall",
         sum(th["mem_stall_levels"]), cy["mem_stall"].as_u64());
  }
}

/// Every timed access is served by exactly one level, and the per-level
/// table agrees with the run totals.
void check_hierarchy(const JsonValue& run, Check& c) {
  const JsonValue& levels = run["cache_levels"];
  if (!levels.is_array()) return;
  for (const JsonValue& th : run["threads"].items()) {
    const std::string who = thread_name(th);
    c.eq(who, "mem_accesses == l1_hits + l1_misses",
         th["mem_accesses"].as_u64(),
         th["l1_hits"].as_u64() + th["l1_misses"].as_u64());
    c.eq(who, "l1_misses == xfers_in + llc_hits + llc_misses",
         th["l1_misses"].as_u64(),
         th["xfers_in"].as_u64() + th["llc_hits"].as_u64() +
             th["llc_misses"].as_u64());
  }
  static constexpr const char* kServedBy[][2] = {{"l1", "l1_hits"},
                                                 {"xfer", "xfers_in"},
                                                 {"llc", "llc_hits"},
                                                 {"dram", "llc_misses"}};
  for (const auto& [level, total] : kServedBy) {
    u64 served = 0;
    for (const JsonValue& l : levels.items()) {
      if (l["level"].as_string() == level) served = l["served"].as_u64();
    }
    c.eq(std::string("level ") + level,
         std::string("served == totals.") + total, served,
         run["totals"][total].as_u64());
  }
}

/// TxPolicy decisions: backoff stays inside its bucket, and each elided,
/// lockset or monitor site makes one decision per abort and one
/// fallback-or-skip per real acquisition.
void check_policy(const JsonValue& run, Check& c) {
  const JsonValue& tot = run["totals"];
  if (!tot.has("backoff_cycles")) return;
  for (const JsonValue& th : run["threads"].items()) {
    c.le(thread_name(th), "backoff_cycles <= cycles.tx_wasted",
         th["backoff_cycles"].as_u64(), th["cycles"]["tx_wasted"].as_u64());
  }
  c.eq("totals", "backoff_cycles == sum(thread backoff_cycles)",
       tot["backoff_cycles"].as_u64(),
       sum_field(run["threads"], "backoff_cycles"));
  for (const JsonValue& lk : run["locks"].items()) {
    const std::string& kind = lk["kind"].as_string();
    if (kind != "elided" && kind != "lockset" && kind != "monitor") continue;
    const JsonValue& p = lk["policy"];
    const std::string site = kind + " site " + lk["site"].as_string();
    c.eq(site, "retries + backoffs + lock_waits + fallbacks == tx_aborts",
         p["retries"].as_u64() + p["backoffs"].as_u64() +
             p["lock_waits"].as_u64() + p["fallbacks"].as_u64(),
         lk["tx_aborts"].as_u64());
    c.eq(site, "fallbacks + skips == fallback_acquires",
         p["fallbacks"].as_u64() + p["skips"].as_u64(),
         lk["fallback_acquires"].as_u64());
  }
}

/// Interval samples: end_run flushes each memory column's tail, so every
/// column sums exactly to its run total.
void check_samples(const JsonValue& run, Check& c) {
  const JsonValue& s = run["samples"];
  if (s["count"].as_u64() == 0) return;
  const JsonValue& tot = run["totals"];
  for (const char* col : {"l1_hits", "l1_misses", "llc_misses"}) {
    c.eq("", sum_rule(col, std::string("totals.") + col),
         sum(s[col]), tot[col].as_u64());
  }
  c.eq("", sum_rule("mem_stall", "totals.cycles.mem_stall"),
       sum(s["mem_stall"]), tot["cycles"]["mem_stall"].as_u64());
}

/// The CcBackend seam's region-level attempt chain.
void check_cc(const JsonValue& run, Check& c) {
  const JsonValue& cc = run["cc"];
  if (!cc.is_object()) return;
  const std::string& scheme = cc["scheme"].as_string();
  const std::string who = "cc " + scheme;
  const u64 commits = cc["commits"].as_u64();
  const u64 aborts = cc["aborts"].as_u64();
  c.eq(who, "starts == commits + aborts", cc["starts"].as_u64(),
       commits + aborts);
  c.eq(who, "sum(aborts_by_class) == aborts", sum(cc["aborts_by_class"]),
       aborts);
  // Direct schemes retry below the seam, so a region never aborts.
  if (scheme == "sgl" || scheme == "tsx") {
    c.eq(who, "aborts == 0 (direct scheme)", aborts, 0);
  }
  if (scheme == "tl2" || scheme == "tictoc" || scheme == "tictoc-hybrid" ||
      scheme == "mvcc") {
    c.eq(who, "totals.tx_started == 0 (STM scheme)",
         run["totals"]["tx_started"].as_u64(), 0);
  }
  // Every tsx region commits either elided or under the fallback lock.
  if (scheme == "tsx") {
    u64 sites = 0, ends = 0;
    for (const JsonValue& lk : run["locks"].items()) {
      if (lk["kind"].as_string() != "elided") continue;
      sites++;
      ends += lk["elided_commits"].as_u64() + lk["fallback_acquires"].as_u64();
    }
    c.ge(who, "elided lock sites >= 1", sites, 1);
    c.eq(who, "commits == sum(elided_commits + fallback_acquires)", commits,
         ends);
  }
  // Snapshot reads never fail validation; GC reclaims only what was made.
  if (scheme == "mvcc") {
    c.eq(who, "aborts_by_class.read_validation == 0",
         cc["aborts_by_class"]["read_validation"].as_u64(), 0);
    c.le(who, "snapshot_commits <= commits",
         cc["snapshot_commits"].as_u64(), commits);
    c.le(who, "gc_reclaims <= versions_created", cc["gc_reclaims"].as_u64(),
         cc["versions_created"].as_u64());
  }
}

/// Per-set counters decompose the level totals exactly; capacity dooms
/// reconcile with the abort causes; objects have a footprint; on a sliced
/// LLC each "llc.s<i>" table agrees with slice i's counters.
void check_set_stats(const JsonValue& run, Check& c) {
  const JsonValue& ss = run["set_stats"];
  if (!ss.is_object()) return;
  const JsonValue& levels = ss["levels"];
  const JsonValue& tot = run["totals"];
  for (const std::string col : {"hits", "misses"}) {
    c.eq("l1 levels", sum_rule(col, "totals.l1_" + col),
         sum_levels(levels, "l1", col.c_str()), tot["l1_" + col].as_u64());
  }
  for (const auto& [col, total] : kLlcColumns) {
    c.eq("llc levels", sum_rule(col, std::string("totals.") + total),
         sum_levels(levels, "llc", col), tot[total].as_u64());
  }
  const JsonValue& cause = tot["aborts_by_cause"];
  const u64 read_dooms = sum_levels(levels, "", "capacity_read_dooms");
  c.eq("all levels",
       sum_rule("capacity_write_dooms", "aborts_by_cause.capacity"),
       sum_levels(levels, "", "capacity_write_dooms"),
       cause["capacity"].as_u64());
  c.eq("all levels",
       sum_rule("capacity_read_dooms", "aborts_by_cause.capacity-read"),
       read_dooms, cause["capacity-read"].as_u64());
  c.ge("llc levels", "sum(doom_draws) >= sum(capacity_read_dooms)",
       sum_levels(levels, "llc", "doom_draws"), read_dooms);
  const JsonValue& slices = run["topology"]["slice_stats"];
  for (const JsonValue& l : levels.items()) {
    const std::string& name = l["level"].as_string();
    if (!starts_with(name, "llc.s")) continue;
    const JsonValue& slice =
        slices.at(std::strtoull(name.c_str() + 5, nullptr, 10));
    for (const auto& [col, total] : kLlcColumns) {
      c.eq("level " + name, sum_rule(col, std::string("slice ") + col),
           sum(l[col]), slice[col].as_u64());
    }
  }
  for (const JsonValue& obj : ss["objects"].items()) {
    const std::string who = "object " + obj["name"].as_string();
    for (const char* key : {"lines", "l1_sets_covered", "llc_sets_covered"}) {
      c.ge(who, std::string(key) + " >= 1", obj[key].as_u64(), 1);
    }
  }
}

/// Slice and socket counters decompose the LLC and DRAM totals, and hop
/// cycles are exactly the hop counts at the configured hop latencies.
void check_topology(const JsonValue& run, Check& c) {
  const JsonValue& topo = run["topology"];
  if (!topo.is_object()) return;
  const JsonValue& tot = run["totals"];
  const JsonValue& slices = topo["slice_stats"];
  const JsonValue& sockets = topo["socket_stats"];
  c.eq("", "len(slice_stats) == slices", slices.size(),
       topo["slices"].as_u64());
  for (const auto& [col, total] : kLlcColumns) {
    c.eq("",
         sum_rule(std::string("slice_stats.") + col,
                  std::string("totals.") + total),
         sum_field(slices, col), tot[total].as_u64());
  }
  c.eq("", "len(socket_stats) == sockets", sockets.size(),
       topo["sockets"].as_u64());
  c.eq("", sum_rule("socket_stats.accesses", "totals.mem_accesses"),
       sum_field(sockets, "accesses"), tot["mem_accesses"].as_u64());
  c.eq("",
       sum_rule("socket_stats.dram_local + dram_remote", "totals.llc_misses"),
       sum_field(sockets, "dram_local") + sum_field(sockets, "dram_remote"),
       tot["llc_misses"].as_u64());
  const u64 lat_slice = topo["lat_hop_slice"].as_u64();
  const u64 lat_socket = topo["lat_hop_socket"].as_u64();
  const auto hops = [&](const std::string& who, const JsonValue& blk) {
    c.eq(who,
         "hop_cycles == slice_hops * lat_hop_slice + "
         "socket_hops * lat_hop_socket",
         blk["hop_cycles"].as_u64(),
         blk["slice_hops"].as_u64() * lat_slice +
             blk["socket_hops"].as_u64() * lat_socket);
  };
  hops("totals", tot);
  for (const JsonValue& th : run["threads"].items()) hops(thread_name(th), th);
}

/// The registry: every rule family, run in this order on every run.
constexpr struct {
  const char* name;
  void (*check)(const JsonValue& run, Check& c);
} kRegistry[] = {
    {"cycles", check_cycles},   {"hierarchy", check_hierarchy},
    {"policy", check_policy},   {"samples", check_samples},
    {"cc", check_cc},           {"set_stats", check_set_stats},
    {"topology", check_topology},
};

}  // namespace

std::string Finding::str() const {
  std::string s = cell.empty() ? "" : "cell " + cell + " ";
  s += "run " + run + (subject.empty() ? "" : " " + subject);
  return s + ": " + rule + ": " + std::to_string(lhs) + " vs " +
         std::to_string(rhs);
}

std::vector<Finding> check_run(const JsonValue& run, const std::string& cell) {
  std::vector<Finding> out;
  Check c{cell, run["label"].as_string(), out};
  for (const auto& f : kRegistry) {
    c.family = f.name;
    f.check(run, c);
  }
  return out;
}

std::vector<Finding> check_invariants(const JsonValue& doc) {
  std::vector<Finding> out;
  const auto check_runs = [&](const JsonValue& runs, const std::string& cell) {
    for (const JsonValue& run : runs.items()) {
      for (Finding& f : check_run(run, cell)) out.push_back(std::move(f));
    }
  };
  // A telemetry artifact has "runs"; a sweep grid has "cells", each with
  // its embedded telemetry.
  check_runs(doc["runs"], "");
  for (const JsonValue& cell : doc["cells"].items()) {
    check_runs(cell["telemetry"]["runs"], cell["cell"].as_string());
  }
  return out;
}

std::vector<Finding> check_invariants(const Telemetry& tel) {
  return check_invariants(JsonParser::parse(tel.json("invariants")));
}

std::string to_string(const std::vector<Finding>& findings) {
  std::string s;
  for (const Finding& f : findings) s += f.str() + "\n";
  return s;
}

}  // namespace tsxhpc::sim
