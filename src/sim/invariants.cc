#include "sim/invariants.h"

#include <cstdlib>
#include <string_view>

#include "sim/sweep.h"
#include "sim/telemetry.h"

namespace tsxhpc::sim {

namespace {

using u64 = std::uint64_t;

/// Collects the findings of one run; the registry sets `family` before
/// each rule family runs, and every rule name is prefixed with it.
struct Check {
  std::string cell;
  std::string run;
  std::size_t run_index;
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
    out.push_back({cell, run, run_index, subject,
                   std::string(family) + ": " + rule, a, b});
  }
};

/// Sum of an array's numbers or of an object's number members.
u64 sum(const JsonValue& v) {
  u64 s = 0;
  if (v.type() == JsonValue::Type::kArray) {
    for (std::size_t i = 0; i < v.size(); ++i) s += v.u64(i);
  } else {
    for (const auto& [k, x] : v.members()) s += v.u64(k);
  }
  return s;
}

/// Sum of `key` over an array of objects.
u64 sum_field(const std::vector<JsonValue>& objs, const char* key) {
  u64 s = 0;
  for (const JsonValue& v : objs) s += v.u64(key);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Per-set column `col` summed over the set_stats levels of one group:
/// "l1" (every "l1.c<i>"), "llc" (the LLC or every "llc.s<i>" slice), or
/// "" for all levels.
u64 sum_levels(const std::vector<JsonValue>& levels, const std::string& group,
               const char* col) {
  u64 s = 0;
  for (const JsonValue& l : levels) {
    const std::string& name = l.str("level");
    if (group.empty() || name == group || starts_with(name, group + ".")) {
      s += sum(l.arr(col));
    }
  }
  return s;
}

std::string thread_name(const JsonValue& th) {
  return "thread " + std::to_string(th.u64("tid"));
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
  for (const JsonValue& th : run.objects("threads")) {
    const JsonValue& cy = th.obj("cycles");
    const std::string who = thread_name(th);
    u64 buckets = 0;
    for (const char* k : {"work", "tx_committed", "tx_wasted", "lock_wait",
                          "fallback", "mem_stall"}) {
      buckets += cy.u64(k);
    }
    const u64 total = cy.u64("total");
    c.eq(who, "sum(cycle buckets) == cycles.total", buckets, total);
    c.eq(who, "cycles.total == end_cycle", total, th.u64("end_cycle"));
    c.eq(who, "sum(mem_stall_levels) == cycles.mem_stall",
         sum(th.obj("mem_stall_levels")), cy.u64("mem_stall"));
  }
}

/// Every timed access is served by exactly one level, and the per-level
/// table agrees with the run totals.
void check_hierarchy(const JsonValue& run, Check& c) {
  const std::vector<JsonValue>& levels = run.objects("cache_levels");
  for (const JsonValue& th : run.objects("threads")) {
    const std::string who = thread_name(th);
    c.eq(who, "mem_accesses == l1_hits + l1_misses", th.u64("mem_accesses"),
         th.u64("l1_hits") + th.u64("l1_misses"));
    c.eq(who, "l1_misses == xfers_in + llc_hits + llc_misses",
         th.u64("l1_misses"),
         th.u64("xfers_in") + th.u64("llc_hits") + th.u64("llc_misses"));
  }
  static constexpr const char* kServedBy[][2] = {{"l1", "l1_hits"},
                                                 {"xfer", "xfers_in"},
                                                 {"llc", "llc_hits"},
                                                 {"dram", "llc_misses"}};
  for (const auto& [level, total] : kServedBy) {
    u64 served = 0;
    for (const JsonValue& l : levels) {
      if (l.str("level") == level) served = l.u64("served");
    }
    c.eq(std::string("level ") + level,
         std::string("served == totals.") + total, served,
         run.obj("totals").u64(total));
  }
}

/// TxPolicy decisions: backoff stays inside its bucket, and each elided,
/// lockset or monitor site makes one decision per abort and one
/// fallback-or-skip per real acquisition.
void check_policy(const JsonValue& run, Check& c) {
  const std::vector<JsonValue>& threads = run.objects("threads");
  for (const JsonValue& th : threads) {
    c.le(thread_name(th), "backoff_cycles <= cycles.tx_wasted",
         th.u64("backoff_cycles"), th.obj("cycles").u64("tx_wasted"));
  }
  c.eq("totals", "backoff_cycles == sum(thread backoff_cycles)",
       run.obj("totals").u64("backoff_cycles"),
       sum_field(threads, "backoff_cycles"));
  for (const JsonValue& lk : run.objects("locks")) {
    const std::string& kind = lk.str("kind");
    if (kind != "elided" && kind != "lockset" && kind != "monitor") continue;
    const JsonValue& p = lk.obj("policy");
    const std::string site = kind + " site " + lk.str("site");
    c.eq(site, "retries + backoffs + lock_waits + fallbacks == tx_aborts",
         p.u64("retries") + p.u64("backoffs") + p.u64("lock_waits") +
             p.u64("fallbacks"),
         lk.u64("tx_aborts"));
    c.eq(site, "fallbacks + skips == fallback_acquires",
         p.u64("fallbacks") + p.u64("skips"), lk.u64("fallback_acquires"));
  }
}

/// Interval samples: end_run flushes each memory column's tail, so every
/// column sums exactly to its run total.
void check_samples(const JsonValue& run, Check& c) {
  const JsonValue& s = run.obj("samples");
  if (s.u64("count") == 0) return;
  const JsonValue& tot = run.obj("totals");
  for (const char* col : {"l1_hits", "l1_misses", "llc_misses"}) {
    c.eq("", sum_rule(col, std::string("totals.") + col), sum(s.arr(col)),
         tot.u64(col));
  }
  c.eq("", sum_rule("mem_stall", "totals.cycles.mem_stall"),
       sum(s.arr("mem_stall")), tot.obj("cycles").u64("mem_stall"));
}

/// The CcBackend seam's region-level attempt chain.
void check_cc(const JsonValue& run, Check& c) {
  if (!run.find("cc")) return;
  const JsonValue& cc = run.obj("cc");
  const std::string& scheme = cc.str("scheme");
  const std::string who = "cc " + scheme;
  const u64 commits = cc.u64("commits");
  const u64 aborts = cc.u64("aborts");
  c.eq(who, "starts == commits + aborts", cc.u64("starts"), commits + aborts);
  c.eq(who, "sum(aborts_by_class) == aborts",
       sum(cc.obj("aborts_by_class")), aborts);
  // Direct schemes retry below the seam, so a region never aborts.
  if (scheme == "sgl" || scheme == "tsx") {
    c.eq(who, "aborts == 0 (direct scheme)", aborts, 0);
  }
  if (scheme == "tl2" || scheme == "tictoc" || scheme == "tictoc-hybrid" ||
      scheme == "mvcc") {
    c.eq(who, "totals.tx_started == 0 (STM scheme)",
         run.obj("totals").u64("tx_started"), 0);
  }
  // Every tsx region commits either elided or under the fallback lock.
  if (scheme == "tsx") {
    u64 sites = 0, ends = 0;
    for (const JsonValue& lk : run.objects("locks")) {
      if (lk.str("kind") != "elided") continue;
      sites++;
      ends += lk.u64("elided_commits") + lk.u64("fallback_acquires");
    }
    c.ge(who, "elided lock sites >= 1", sites, 1);
    c.eq(who, "commits == sum(elided_commits + fallback_acquires)", commits,
         ends);
  }
  // Snapshot reads never fail validation; GC reclaims only what was made.
  if (scheme == "mvcc") {
    c.eq(who, "aborts_by_class.read_validation == 0",
         cc.obj("aborts_by_class").u64("read_validation"), 0);
    c.le(who, "snapshot_commits <= commits", cc.u64("snapshot_commits"),
         commits);
    c.le(who, "gc_reclaims <= versions_created", cc.u64("gc_reclaims"),
         cc.u64("versions_created"));
  }
}

/// Per-set counters decompose the level totals exactly; capacity dooms
/// reconcile with the abort causes; objects have a footprint; on a sliced
/// LLC each "llc.s<i>" table agrees with slice i's counters.
void check_set_stats(const JsonValue& run, Check& c) {
  if (!run.find("set_stats")) return;
  const JsonValue& ss = run.obj("set_stats");
  const std::vector<JsonValue>& levels = ss.objects("levels");
  const JsonValue& tot = run.obj("totals");
  for (const std::string col : {"hits", "misses"}) {
    c.eq("l1 levels", sum_rule(col, "totals.l1_" + col),
         sum_levels(levels, "l1", col.c_str()), tot.u64("l1_" + col));
  }
  for (const auto& [col, total] : kLlcColumns) {
    c.eq("llc levels", sum_rule(col, std::string("totals.") + total),
         sum_levels(levels, "llc", col), tot.u64(total));
  }
  const JsonValue& cause = tot.obj("aborts_by_cause");
  const u64 read_dooms = sum_levels(levels, "", "capacity_read_dooms");
  c.eq("all levels",
       sum_rule("capacity_write_dooms", "aborts_by_cause.capacity"),
       sum_levels(levels, "", "capacity_write_dooms"), cause.u64("capacity"));
  c.eq("all levels",
       sum_rule("capacity_read_dooms", "aborts_by_cause.capacity-read"),
       read_dooms, cause.u64("capacity-read"));
  c.ge("llc levels", "sum(doom_draws) >= sum(capacity_read_dooms)",
       sum_levels(levels, "llc", "doom_draws"), read_dooms);
  const JsonValue& slices = run.obj("topology").arr("slice_stats");
  for (const JsonValue& l : levels) {
    const std::string& name = l.str("level");
    if (!starts_with(name, "llc.s")) continue;
    const JsonValue& slice =
        slices.obj(std::strtoull(name.c_str() + 5, nullptr, 10));
    for (const auto& [col, total] : kLlcColumns) {
      c.eq("level " + name, sum_rule(col, std::string("slice ") + col),
           sum(l.arr(col)), slice.u64(col));
    }
  }
  for (const JsonValue& obj : ss.objects("objects")) {
    const std::string who = "object " + obj.str("name");
    for (const char* key : {"lines", "l1_sets_covered", "llc_sets_covered"}) {
      c.ge(who, std::string(key) + " >= 1", obj.u64(key), 1);
    }
  }
}

/// Slice and socket counters decompose the LLC and DRAM totals, and hop
/// cycles are exactly the hop counts at the configured hop latencies.
void check_topology(const JsonValue& run, Check& c) {
  const JsonValue& topo = run.obj("topology");
  const JsonValue& tot = run.obj("totals");
  const std::vector<JsonValue>& slices = topo.objects("slice_stats");
  const std::vector<JsonValue>& sockets = topo.objects("socket_stats");
  c.eq("", "len(slice_stats) == slices", slices.size(), topo.u64("slices"));
  for (const auto& [col, total] : kLlcColumns) {
    c.eq("",
         sum_rule(std::string("slice_stats.") + col,
                  std::string("totals.") + total),
         sum_field(slices, col), tot.u64(total));
  }
  c.eq("", "len(socket_stats) == sockets", sockets.size(),
       topo.u64("sockets"));
  c.eq("", sum_rule("socket_stats.accesses", "totals.mem_accesses"),
       sum_field(sockets, "accesses"), tot.u64("mem_accesses"));
  c.eq("",
       sum_rule("socket_stats.dram_local + dram_remote", "totals.llc_misses"),
       sum_field(sockets, "dram_local") + sum_field(sockets, "dram_remote"),
       tot.u64("llc_misses"));
  const u64 lat_slice = topo.u64("lat_hop_slice");
  const u64 lat_socket = topo.u64("lat_hop_socket");
  const auto hops = [&](const std::string& who, const JsonValue& blk) {
    c.eq(who,
         "hop_cycles == slice_hops * lat_hop_slice + "
         "socket_hops * lat_hop_socket",
         blk.u64("hop_cycles"),
         blk.u64("slice_hops") * lat_slice +
             blk.u64("socket_hops") * lat_socket);
  };
  hops("totals", tot);
  for (const JsonValue& th : run.objects("threads")) hops(thread_name(th), th);
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

std::vector<Finding> check_invariants(const JsonValue& doc) {
  std::vector<Finding> out;
  const auto check_runs = [&](const JsonValue& tel, const std::string& cell) {
    // Exactly the schema Telemetry::json writes; no older version is read.
    const std::string& schema = tel.str("schema");
    if (schema != kTelemetrySchema) {
      tel.fail("schema", "expected '" + std::string(kTelemetrySchema) +
                             "', got '" + schema + "'" +
                             (cell.empty() ? "" : " (cell " + cell + ")"));
    }
    const std::vector<JsonValue>& runs = tel.objects("runs");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      Check c{cell, runs[i].str("label"), i, out};
      for (const auto& f : kRegistry) {
        c.family = f.name;
        f.check(runs[i], c);
      }
    }
  };
  // A telemetry artifact has "runs"; a sweep grid has "cells", each with
  // its embedded telemetry.
  if (doc.str("schema") != kSweepSchema) {
    check_runs(doc, "");
    return out;
  }
  for (const JsonValue& cell : doc.objects("cells")) {
    check_runs(cell.obj("telemetry"), cell.str("cell"));
  }
  return out;
}

std::vector<Finding> check_invariants(const Telemetry& tel) {
  return check_invariants(JsonParser::parse(tel.json("invariants")));
}

bool load_artifact(std::string_view text, JsonValue& doc, std::string* error,
                   std::vector<Finding>* findings) {
  std::string parse_error;
  doc = JsonParser::parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "parse error: " + parse_error;
    return false;
  }
  try {
    std::vector<Finding> found = check_invariants(doc);
    if (findings != nullptr) *findings = std::move(found);
  } catch (const JsonError& e) {
    *error = e.what();
    return false;
  }
  return true;
}

std::string to_string(const std::vector<Finding>& findings) {
  std::string s;
  for (const Finding& f : findings) s += f.str() + "\n";
  return s;
}

}  // namespace tsxhpc::sim
