#include "sim/telemetry.h"

#include <algorithm>
#include <cstdio>

#include "sim/fsio.h"
#include "sim/json.h"

namespace tsxhpc::sim {

const char* to_string(LockKind k) {
  switch (k) {
    case LockKind::kSpin: return "spin";
    case LockKind::kTicket: return "ticket";
    case LockKind::kFutex: return "futex";
    case LockKind::kElided: return "elided";
    case LockKind::kHle: return "hle";
    case LockKind::kLockset: return "lockset";
    case LockKind::kMonitor: return "monitor";
  }
  return "?";
}

const char* to_string(PolicyDecision d) {
  switch (d) {
    case PolicyDecision::kRetry: return "retries";
    case PolicyDecision::kBackoff: return "backoffs";
    case PolicyDecision::kLockWait: return "lock_waits";
    case PolicyDecision::kFallback: return "fallbacks";
    case PolicyDecision::kSkip: return "skips";
    case PolicyDecision::kNumDecisions: break;
  }
  return "?";
}

Telemetry::Telemetry(TelemetryOptions opt) : opt_(opt) {
  if (opt_.sample_interval == 0) opt_.sample_interval = 1;
  if (opt_.max_samples < 2) opt_.max_samples = 2;
}

std::vector<AttemptRec> RunRecord::attempts_in_order() const {
  std::vector<AttemptRec> out;
  out.reserve(attempts.size());
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    out.push_back(attempts[(attempts_head + i) % attempts.size()]);
  }
  return out;
}

std::vector<BlockedSlice> RunRecord::blocked_in_order() const {
  std::vector<BlockedSlice> out;
  out.reserve(blocked.size());
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    out.push_back(blocked[(blocked_head + i) % blocked.size()]);
  }
  return out;
}

void Telemetry::begin_run(int num_threads,
                          const std::vector<ThreadStats>* live_stats,
                          std::string_view backend, std::string_view label) {
  if (open_run_) abandon_run();  // defensive: a run never ended
  // Re-announcing the label the previous run adopted means "another run of
  // the same region" (a workload passing its RunSpec label on each of its
  // internal runs): keep the established "#2", "#3" suffixing instead of
  // emitting duplicate labels.
  if (!label.empty() && label != last_label_) next_label_ = std::string(label);
  runs_.emplace_back();
  RunRecord& r = runs_.back();
  if (!next_label_.empty()) {
    r.label = std::move(next_label_);
    next_label_.clear();
    last_label_ = r.label;
    label_reuse_ = 1;
  } else if (!last_label_.empty()) {
    // Several engine runs inside one labeled workload invocation.
    r.label = last_label_ + "#" + std::to_string(++label_reuse_);
  } else {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "run_%04llu",
                  static_cast<unsigned long long>(run_seq_));
    r.label = buf;
  }
  run_seq_++;
  r.backend = backend;
  r.num_threads = num_threads;
  r.sample_interval = opt_.sample_interval;
  r.conflicts.assign(
      static_cast<std::size_t>(num_threads) * num_threads, 0);

  open_run_ = true;
  live_stats_ = live_stats;
  open_sections_.assign(static_cast<std::size_t>(num_threads),
                        OpenSection{});
  next_section_id_ = 0;
  last_l1_hits_ = 0;
  last_l1_misses_ = 0;
  last_llc_misses_ = 0;
  last_mem_stall_ = 0;
  hold_since_.clear();
}

void Telemetry::end_run(const RunStats& rs) {
  RunRecord* r = cur();
  if (!r) return;
  // Flush the tail of the memory columns (deltas accrued since the last
  // sampling event) into the final bucket, so each column sums exactly to
  // its run total (the samples rule in sim/invariants.h). A run with no
  // sampling events at all keeps an empty series (nothing to flush into).
  if (!r->samples.empty()) {
    const ThreadStats tot = rs.total();
    IntervalSample& last = r->samples.back();
    last.l1_hits += tot.l1_hits - last_l1_hits_;
    last.l1_misses += tot.l1_misses - last_l1_misses_;
    last.llc_misses += tot.llc_misses - last_llc_misses_;
    last.mem_stall += tot.bucket(CycleBucket::kMemStall) - last_mem_stall_;
  }
  r->stats = rs;
  r->complete = true;
  open_run_ = false;
  live_stats_ = nullptr;
}

void Telemetry::record_set_stats(std::vector<LevelSetStats> levels,
                                 std::vector<NamedRegionRec> objects,
                                 std::uint32_t line_bytes) {
  RunRecord* r = cur();
  if (!r) return;
  r->set_stats = std::move(levels);
  r->set_objects = std::move(objects);
  r->line_bytes = line_bytes;
}

void Telemetry::record_topology(TopologyRec topo) {
  RunRecord* r = cur();
  if (!r) return;
  r->topology = std::move(topo);
}

void Telemetry::record_cc(const CcStats& cc) {
  RunRecord* r = cur();
  if (!r) return;
  r->cc.merge(cc);
  r->has_cc = true;
}

void Telemetry::abandon_run() {
  if (!open_run_) return;
  runs_.pop_back();
  open_run_ = false;
  live_stats_ = nullptr;
}

void Telemetry::bump(std::vector<std::uint64_t>& v, std::size_t idx) {
  // Clamp pathological attempt counts so the arrays stay bounded.
  if (idx > 63) idx = 63;
  if (v.size() <= idx) v.resize(idx + 1, 0);
  v[idx]++;
}

LockSiteStats& Telemetry::site_stats(RunRecord& r, Addr site, LockKind kind) {
  auto [it, inserted] = r.locks.try_emplace(site);
  if (inserted) it->second.kind = kind;
  return it->second;
}

IntervalSample& Telemetry::bucket(RunRecord& r, Cycles at) {
  std::size_t idx = static_cast<std::size_t>(at / r.sample_interval);
  while (idx >= opt_.max_samples) {
    // Compact: merge adjacent buckets, double the interval.
    const std::size_t n = r.samples.size();
    std::vector<IntervalSample> merged((n + 1) / 2);
    for (std::size_t i = 0; i < n; ++i) merged[i / 2].merge(r.samples[i]);
    r.samples = std::move(merged);
    r.sample_interval *= 2;
    idx = static_cast<std::size_t>(at / r.sample_interval);
  }
  if (r.samples.size() <= idx) r.samples.resize(idx + 1);
  return r.samples[idx];
}

void Telemetry::sample_l1(RunRecord& r, Cycles at) {
  if (!live_stats_) return;
  std::uint64_t hits = 0, misses = 0, llc_misses = 0;
  Cycles mem_stall = 0;
  for (const auto& s : *live_stats_) {
    hits += s.l1_hits;
    misses += s.l1_misses;
    llc_misses += s.llc_misses;
    mem_stall += s.bucket(CycleBucket::kMemStall);
  }
  IntervalSample& b = bucket(r, at);
  b.l1_hits += hits - last_l1_hits_;
  b.l1_misses += misses - last_l1_misses_;
  b.llc_misses += llc_misses - last_llc_misses_;
  b.mem_stall += mem_stall - last_mem_stall_;
  last_l1_hits_ = hits;
  last_l1_misses_ = misses;
  last_llc_misses_ = llc_misses;
  last_mem_stall_ = mem_stall;
}

void Telemetry::push_attempt(RunRecord& r, const AttemptRec& rec) {
  if (!opt_.collect_attempts) return;
  if (opt_.max_attempts == 0 || r.attempts.size() < opt_.max_attempts) {
    r.attempts.push_back(rec);
    return;
  }
  r.attempts[r.attempts_head] = rec;
  r.attempts_head = (r.attempts_head + 1) % r.attempts.size();
  r.attempts_dropped++;
}

void Telemetry::on_txn(ThreadId tid, Cycles start, Cycles end, bool committed,
                       AbortCause cause, std::uint32_t read_lines,
                       std::uint32_t write_lines) {
  RunRecord* r = cur();
  if (!r) return;

  AttemptRec rec;
  rec.tid = tid;
  rec.committed = committed;
  rec.cause = cause;
  rec.start = start;
  rec.end = end;
  rec.read_lines = read_lines;
  rec.write_lines = write_lines;

  OpenSection& sec = open_sections_[static_cast<std::size_t>(tid)];
  if (sec.open) {
    rec.section = sec.id;
    rec.attempt = sec.attempts++;
    rec.site = sec.site;
    LockSiteStats& ls = site_stats(*r, sec.site, sec.kind);
    if (committed) {
      ls.tx_cycles_committed += end - start;
    } else {
      ls.tx_cycles_wasted += end - start;
      ls.tx_aborts++;
      ls.aborts_by_cause[static_cast<std::size_t>(cause)]++;
    }
  } else {
    // Raw transaction outside any elided section: its own 1-attempt chain.
    rec.section = next_section_id_++;
    rec.attempt = 0;
    if (committed) bump(r->committed_by_attempt, 0);
  }

  bucket(*r, start).tx_started++;
  const std::uint64_t footprint = read_lines + write_lines;
  const Cycles spent = end - start;
  if (committed) {
    bucket(*r, end).tx_committed++;
    r->commit_footprint_lines.add(footprint);
    r->commit_cycles.add(spent);
  } else {
    bucket(*r, end).tx_aborted++;
    r->abort_footprint_lines.add(footprint);
    r->abort_cycles.add(spent);
  }
  sample_l1(*r, end);
  push_attempt(*r, rec);
}

void Telemetry::section_enter(ThreadId tid, Addr site, LockKind kind) {
  RunRecord* r = cur();
  if (!r) return;
  OpenSection& sec = open_sections_[static_cast<std::size_t>(tid)];
  sec.open = true;
  sec.site = site;
  sec.kind = kind;
  sec.id = next_section_id_++;
  sec.attempts = 0;
  site_stats(*r, site, kind);  // register the site even if nothing happens
}

void Telemetry::section_commit(ThreadId tid) {
  RunRecord* r = cur();
  if (!r) return;
  OpenSection& sec = open_sections_[static_cast<std::size_t>(tid)];
  if (!sec.open) return;
  sec.open = false;
  site_stats(*r, sec.site, sec.kind).elided_commits++;
  bump(r->committed_by_attempt,
       sec.attempts > 0 ? sec.attempts - 1u : 0u);
}

void Telemetry::section_fallback(ThreadId tid, Cycles acquired_at,
                                 Cycles released_at) {
  RunRecord* r = cur();
  if (!r) return;
  OpenSection& sec = open_sections_[static_cast<std::size_t>(tid)];
  if (!sec.open) return;
  sec.open = false;
  LockSiteStats& ls = site_stats(*r, sec.site, sec.kind);
  ls.fallback_acquires++;
  ls.fallback_hold_cycles += released_at - acquired_at;
  bump(r->fallback_after_attempts, sec.attempts);
  bucket(*r, released_at).fallbacks++;

  AttemptRec rec;
  rec.tid = tid;
  rec.section = sec.id;
  rec.attempt = sec.attempts;
  rec.fallback = true;
  rec.committed = true;
  rec.start = acquired_at;
  rec.end = released_at;
  rec.site = sec.site;
  push_attempt(*r, rec);
}

void Telemetry::policy_decision(ThreadId tid, PolicyDecision d) {
  RunRecord* r = cur();
  if (!r) return;
  OpenSection& sec = open_sections_[static_cast<std::size_t>(tid)];
  if (!sec.open) return;
  site_stats(*r, sec.site, sec.kind)
      .policy_decisions[static_cast<std::size_t>(d)]++;
}

void Telemetry::on_lock_acquired(Addr site, LockKind kind, ThreadId tid,
                                 Cycles wait_start, Cycles now,
                                 bool contended) {
  RunRecord* r = cur();
  if (!r) return;
  LockSiteStats& ls = site_stats(*r, site, kind);
  ls.acquires++;
  if (contended) ls.contended_acquires++;
  ls.wait_cycles += now - wait_start;
  hold_since_[{site, tid}] = now;
}

void Telemetry::on_lock_released(Addr site, ThreadId tid, Cycles now) {
  RunRecord* r = cur();
  if (!r) return;
  auto it = hold_since_.find({site, tid});
  if (it == hold_since_.end()) return;  // acquired via an untracked path
  auto ls = r->locks.find(site);
  if (ls != r->locks.end()) ls->second.hold_cycles += now - it->second;
  hold_since_.erase(it);
  sample_l1(*r, now);
}

void Telemetry::on_blocked(ThreadId tid, Cycles start, Cycles end) {
  RunRecord* r = cur();
  if (!r) return;
  r->blocked_slices++;
  r->blocked_cycles += end - start;
  if (!opt_.collect_attempts) return;
  BlockedSlice s{tid, start, end};
  if (opt_.max_blocked == 0 || r->blocked.size() < opt_.max_blocked) {
    r->blocked.push_back(s);
    return;
  }
  r->blocked[r->blocked_head] = s;
  r->blocked_head = (r->blocked_head + 1) % r->blocked.size();
  r->blocked_dropped++;
}

void Telemetry::on_conflict(ThreadId aggressor, ThreadId victim, Addr line,
                            bool is_write, std::string_view object) {
  RunRecord* r = cur();
  if (!r) return;
  r->conflict_dooms++;
  const std::size_t n = static_cast<std::size_t>(r->num_threads);
  const auto a = static_cast<std::size_t>(aggressor);
  const auto v = static_cast<std::size_t>(victim);
  if (a < n && v < n) r->conflicts[a * n + v]++;

  auto [it, inserted] = r->conflict_lines.try_emplace(line);
  ConflictLineStats& cl = it->second;
  if (inserted) {
    cl.object = std::string(object);
    cl.by_aggressor.assign(n, 0);
    cl.by_victim.assign(n, 0);
  }
  cl.dooms++;
  (is_write ? cl.write_dooms : cl.read_dooms)++;
  if (a < n) cl.by_aggressor[a]++;
  if (v < n) cl.by_victim[v]++;
}

void Telemetry::on_capacity(ThreadId /*victim*/, Addr line, bool read_line,
                            std::string_view object) {
  RunRecord* r = cur();
  if (!r) return;
  auto [it, inserted] = r->capacity_lines.try_emplace(line);
  if (inserted) it->second.object = std::string(object);
  (read_line ? it->second.read_evict_dooms
             : it->second.write_evict_dooms)++;
}

std::vector<std::pair<Addr, const ConflictLineStats*>>
RunRecord::conflict_lines_by_heat() const {
  std::vector<std::pair<Addr, const ConflictLineStats*>> v;
  v.reserve(conflict_lines.size());
  for (const auto& [addr, cl] : conflict_lines) v.emplace_back(addr, &cl);
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    if (a.second->dooms != b.second->dooms)
      return a.second->dooms > b.second->dooms;
    return a.first < b.first;
  });
  return v;
}

void Telemetry::on_futex_wait(Addr addr) {
  RunRecord* r = cur();
  if (!r) return;
  r->futexes[addr].waits++;
}

void Telemetry::on_futex_wake(Addr addr) {
  RunRecord* r = cur();
  if (!r) return;
  r->futexes[addr].wakes++;
}

namespace {

void write_counter_block(JsonWriter& w, const ThreadStats& t) {
  w.kv("tx_started", t.tx_started);
  w.kv("tx_committed", t.tx_committed);
  w.kv("tx_aborted", t.tx_aborts_total());
  w.kv("abort_rate_pct", t.abort_rate_pct());
  w.key("aborts_by_cause");
  w.begin_object();
  for (std::size_t i = 1;
       i < static_cast<std::size_t>(AbortCause::kNumCauses); ++i) {
    w.kv(to_string(static_cast<AbortCause>(i)), t.tx_aborted[i]);
  }
  w.end_object();
  w.kv("tx_read_lines_evicted", t.tx_read_lines_evicted);
  w.kv("tx_doomed_by_remote", t.tx_doomed_by_remote);
  w.kv("tx_cycles_committed", t.tx_cycles_committed);
  w.kv("tx_cycles_wasted", t.tx_cycles_wasted);
  w.kv("wasted_cycle_pct", t.wasted_cycle_pct());
  w.key("cycles");
  w.begin_object();
  for (std::size_t b = 0;
       b < static_cast<std::size_t>(CycleBucket::kNumBuckets); ++b) {
    w.kv(to_string(static_cast<CycleBucket>(b)), t.cycles_by_bucket[b]);
  }
  w.kv("total", t.cycles_total());
  w.end_object();
  // Policy backoff is a sub-counter of the tx_wasted bucket (v4):
  // backoff_cycles <= cycles.tx_wasted always.
  w.kv("backoff_cycles", t.backoff_cycles);
  w.key("mem_stall_levels");
  w.begin_object();
  // kL1 is usually zero (the hit latency is all work) but not structurally
  // so: an atomic's RMW surcharge on an L1-hit line stalls at the L1. Emit
  // every level so the entries partition the mem_stall bucket exactly.
  for (std::size_t l = 0;
       l < static_cast<std::size_t>(MemLevel::kNumLevels); ++l) {
    w.kv(to_string(static_cast<MemLevel>(l)), t.mem_stall_by_level[l]);
  }
  w.end_object();
  w.kv("mem_accesses", t.mem_accesses);
  w.kv("l1_hits", t.l1_hits);
  w.kv("l1_misses", t.l1_misses);
  w.kv("l1_evictions", t.l1_evictions);
  w.kv("llc_hits", t.llc_hits);
  w.kv("llc_misses", t.llc_misses);
  w.kv("llc_evictions", t.llc_evictions);
  w.kv("xfers_in", t.xfers_in);
  w.kv("atomics", t.atomics);
  // v6 interconnect hops. hop_cycles reconciles exactly:
  //   hop_cycles == slice_hops * lat_hop_slice + socket_hops * lat_hop_socket
  w.kv("slice_hops", t.slice_hops);
  w.kv("socket_hops", t.socket_hops);
  w.kv("hop_cycles", t.hop_cycles);
  w.kv("syscalls", t.syscalls);
  w.kv("futex_waits", t.futex_waits);
  w.kv("futex_wakes", t.futex_wakes);
}

void write_histogram(JsonWriter& w, const char* key, const Histogram& h) {
  w.key(key);
  w.begin_array();
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    w.begin_array();
    w.value(Histogram::lower_bound_of(i));
    w.value(h.buckets[i]);
    w.end_array();
  }
  w.end_array();
}

void write_u64_array(JsonWriter& w, const char* key,
                     const std::vector<std::uint64_t>& v) {
  w.key(key);
  w.begin_array();
  for (auto x : v) w.value(x);
  w.end_array();
}

}  // namespace

std::string Telemetry::json(const std::string& bench_name) const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kTelemetrySchema);
  w.kv("bench", bench_name);
  w.key("runs");
  w.begin_array();
  for (const RunRecord& r : runs_) {
    w.begin_object();
    w.kv("label", r.label);
    w.kv("backend", r.backend);
    w.kv("num_threads", r.num_threads);
    w.kv("complete", r.complete);
    w.kv("makespan", r.stats.makespan);

    w.key("totals");
    w.begin_object();
    write_counter_block(w, r.stats.total());
    w.end_object();

    // Concurrency-control block (v7): only when a TM runtime reported into
    // this run, so non-TM artifacts keep their shape.
    if (r.has_cc) {
      w.key("cc");
      w.begin_object();
      w.kv("scheme", r.cc.scheme);
      w.kv("starts", r.cc.starts);
      w.kv("commits", r.cc.commits);
      w.kv("aborts", r.cc.aborts);
      w.kv("abort_rate_pct", r.cc.abort_rate_pct());
      w.key("aborts_by_class");
      w.begin_object();
      w.kv("read_validation", r.cc.aborts_read_validation);
      w.kv("lock_acquire", r.cc.aborts_lock_acquire);
      w.kv("commit_validation", r.cc.aborts_commit_validation);
      w.end_object();
      w.kv("read_set_extensions", r.cc.read_set_extensions);
      w.kv("snapshot_commits", r.cc.snapshot_commits);
      w.kv("versions_created", r.cc.versions_created);
      w.kv("version_chain_hops", r.cc.version_chain_hops);
      w.kv("version_chain_depth_max", r.cc.version_chain_depth_max);
      w.kv("gc_runs", r.cc.gc_runs);
      w.kv("gc_reclaims", r.cc.gc_reclaims);
      w.end_object();
    }

    // Uniform per-level hierarchy table (derived from the totals): for each
    // level, accesses it served, accesses it passed down (misses), lines it
    // displaced, and the stall cycles attributed to it. "dram" is the miss
    // endpoint: it serves every LLC miss and never misses itself.
    {
      const ThreadStats tot = r.stats.total();
      struct Row {
        const char* level;
        std::uint64_t served, misses, evictions;
        Cycles stall;
      };
      const auto stall = [&tot](MemLevel l) {
        return tot.mem_stall_by_level[static_cast<std::size_t>(l)];
      };
      const Row rows[] = {
          {"l1", tot.l1_hits, tot.l1_misses, tot.l1_evictions,
           stall(MemLevel::kL1)},
          {"xfer", tot.xfers_in, 0, 0, stall(MemLevel::kXfer)},
          {"llc", tot.llc_hits, tot.llc_misses, tot.llc_evictions,
           stall(MemLevel::kLlc)},
          {"dram", tot.llc_misses, 0, 0, stall(MemLevel::kDram)},
      };
      w.key("cache_levels");
      w.begin_array();
      for (const Row& row : rows) {
        w.begin_object();
        w.kv("level", row.level);
        w.kv("served", row.served);
        w.kv("misses", row.misses);
        w.kv("evictions", row.evictions);
        w.kv("stall_cycles", row.stall);
        w.end_object();
      }
      w.end_array();
    }

    // v6: machine topology and its per-slice/per-socket event counters.
    // Summed over slices, hits/misses/evictions/xfers reproduce the run's
    // llc_hits/llc_misses/llc_evictions/xfers_in totals exactly; summed over
    // sockets, accesses reproduces mem_accesses and dram_local + dram_remote
    // reproduces llc_misses (topology rules in sim/invariants.h).
    {
      const TopologyRec& topo = r.topology;
      w.key("topology");
      w.begin_object();
      w.kv("sockets", topo.sockets);
      w.kv("cores_per_socket", topo.cores_per_socket);
      w.kv("slices", topo.slices);
      w.kv("map", topo.map);
      w.kv("lat_hop_slice", topo.lat_hop_slice);
      w.kv("lat_hop_socket", topo.lat_hop_socket);
      w.key("slice_stats");
      w.begin_array();
      for (const SliceStats& s : topo.slice_stats) {
        w.begin_object();
        w.kv("hits", s.hits);
        w.kv("misses", s.misses);
        w.kv("evictions", s.evictions);
        w.kv("xfers", s.xfers);
        w.end_object();
      }
      w.end_array();
      w.key("socket_stats");
      w.begin_array();
      for (const SocketStats& s : topo.socket_stats) {
        w.begin_object();
        w.kv("accesses", s.accesses);
        w.kv("dram_local", s.dram_local);
        w.kv("dram_remote", s.dram_remote);
        w.kv("slice_hops", s.slice_hops);
        w.kv("socket_hops", s.socket_hops);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }

    w.key("threads");
    w.begin_array();
    for (std::size_t t = 0; t < r.stats.threads.size(); ++t) {
      const ThreadStats& ts = r.stats.threads[t];
      w.begin_object();
      w.kv("tid", static_cast<std::uint64_t>(t));
      write_counter_block(w, ts);
      w.kv("end_cycle", ts.end_cycle);
      w.end_object();
    }
    w.end_array();

    w.key("locks");
    w.begin_array();
    for (const auto& [site, ls] : r.locks) {
      w.begin_object();
      w.kv_hex("site", site);
      w.kv("kind", to_string(ls.kind));
      w.kv("acquires", ls.acquires);
      w.kv("contended_acquires", ls.contended_acquires);
      w.kv("wait_cycles", ls.wait_cycles);
      w.kv("hold_cycles", ls.hold_cycles);
      w.kv("elided_commits", ls.elided_commits);
      w.kv("fallback_acquires", ls.fallback_acquires);
      w.kv("elision_rate_pct", 100.0 * ls.elision_rate());
      w.kv("tx_cycles_committed", ls.tx_cycles_committed);
      w.kv("tx_cycles_wasted", ls.tx_cycles_wasted);
      w.kv("fallback_hold_cycles", ls.fallback_hold_cycles);
      w.kv("tx_aborts", ls.tx_aborts);
      w.key("aborts_by_cause");
      w.begin_object();
      for (std::size_t i = 1;
           i < static_cast<std::size_t>(AbortCause::kNumCauses); ++i) {
        if (ls.aborts_by_cause[i] == 0) continue;
        w.kv(to_string(static_cast<AbortCause>(i)), ls.aborts_by_cause[i]);
      }
      w.end_object();
      // TxPolicy decision counts (v4). Reconciliation invariants:
      // retries+backoffs+lock_waits+fallbacks == tx_aborts, and
      // fallbacks+skips == fallback_acquires (elided-family sites).
      w.key("policy");
      w.begin_object();
      for (std::size_t i = 0;
           i < static_cast<std::size_t>(PolicyDecision::kNumDecisions); ++i) {
        w.kv(to_string(static_cast<PolicyDecision>(i)),
             ls.policy_decisions[i]);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();

    w.key("sections");
    w.begin_object();
    write_u64_array(w, "committed_by_attempt", r.committed_by_attempt);
    write_u64_array(w, "fallback_after_attempts", r.fallback_after_attempts);
    w.end_object();

    w.key("histograms");
    w.begin_object();
    write_histogram(w, "commit_footprint_lines", r.commit_footprint_lines);
    write_histogram(w, "abort_footprint_lines", r.abort_footprint_lines);
    write_histogram(w, "commit_cycles", r.commit_cycles);
    write_histogram(w, "abort_cycles", r.abort_cycles);
    w.end_object();

    w.key("samples");
    w.begin_object();
    w.kv("interval_cycles", r.sample_interval);
    w.kv("count", static_cast<std::uint64_t>(r.samples.size()));
    auto column = [&](const char* key, auto get) {
      w.key(key);
      w.begin_array();
      for (const IntervalSample& s : r.samples) w.value(get(s));
      w.end_array();
    };
    column("tx_started", [](const IntervalSample& s) { return s.tx_started; });
    column("tx_committed",
           [](const IntervalSample& s) { return s.tx_committed; });
    column("tx_aborted", [](const IntervalSample& s) { return s.tx_aborted; });
    column("fallbacks", [](const IntervalSample& s) { return s.fallbacks; });
    column("l1_hits", [](const IntervalSample& s) { return s.l1_hits; });
    column("l1_misses", [](const IntervalSample& s) { return s.l1_misses; });
    // v5 memory-pressure columns; end_run flushes their tail so each sums
    // exactly to the run total.
    column("llc_misses", [](const IntervalSample& s) { return s.llc_misses; });
    column("mem_stall", [](const IntervalSample& s) { return s.mem_stall; });
    w.end_object();

    w.key("conflicts");
    w.begin_array();
    const std::size_t n = static_cast<std::size_t>(r.num_threads);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t c = r.conflicts[a * n + v];
        if (c == 0) continue;
        w.begin_array();
        w.value(static_cast<std::uint64_t>(a));
        w.value(static_cast<std::uint64_t>(v));
        w.value(c);
        w.end_array();
      }
    }
    w.end_array();

    w.key("conflict_lines");
    w.begin_array();
    {
      auto hot = r.conflict_lines_by_heat();
      const std::size_t limit = std::min<std::size_t>(hot.size(), 64);
      for (std::size_t i = 0; i < limit; ++i) {
        const auto& [addr, cl] = hot[i];
        w.begin_object();
        w.kv_hex("line", addr);
        w.kv("object", cl->object);
        w.kv("dooms", cl->dooms);
        w.kv("write_dooms", cl->write_dooms);
        w.kv("read_dooms", cl->read_dooms);
        write_u64_array(w, "by_aggressor", cl->by_aggressor);
        write_u64_array(w, "by_victim", cl->by_victim);
        w.end_object();
      }
    }
    w.end_array();
    w.kv("conflict_lines_total",
         static_cast<std::uint64_t>(r.conflict_lines.size()));

    w.key("capacity_lines");
    w.begin_array();
    {
      std::size_t emitted = 0;
      for (const auto& [addr, cs] : r.capacity_lines) {
        if (emitted++ >= 64) break;
        w.begin_object();
        w.kv_hex("line", addr);
        w.kv("object", cs.object);
        w.kv("write_evict_dooms", cs.write_evict_dooms);
        w.kv("read_evict_dooms", cs.read_evict_dooms);
        w.end_object();
      }
    }
    w.end_array();
    w.kv("capacity_lines_total",
         static_cast<std::uint64_t>(r.capacity_lines.size()));

    // Per-set accounting (v5). Omitted entirely when the run was recorded
    // without MachineConfig::set_stats, so default artifacts only change by
    // the documented schema-string/sample-column deltas.
    if (!r.set_stats.empty()) {
      w.key("set_stats");
      w.begin_object();
      w.kv("line_bytes", static_cast<std::uint64_t>(r.line_bytes));
      w.key("levels");
      w.begin_array();
      for (const LevelSetStats& lv : r.set_stats) {
        w.begin_object();
        w.kv("level", lv.level);
        w.kv("sets", static_cast<std::uint64_t>(lv.sets));
        w.kv("ways", static_cast<std::uint64_t>(lv.ways));
        auto set_column = [&](const char* key, auto get) {
          w.key(key);
          w.begin_array();
          for (const SetCounters& c : lv.counters) w.value(get(c));
          w.end_array();
        };
        set_column("hits", [](const SetCounters& c) { return c.hits; });
        set_column("misses", [](const SetCounters& c) { return c.misses; });
        set_column("evictions",
                   [](const SetCounters& c) { return c.evictions; });
        set_column("xfers", [](const SetCounters& c) { return c.xfers; });
        set_column("back_invalidations",
                   [](const SetCounters& c) { return c.back_invalidations; });
        set_column("doom_draws",
                   [](const SetCounters& c) { return c.doom_draws; });
        set_column("capacity_write_dooms", [](const SetCounters& c) {
          return c.capacity_write_dooms;
        });
        set_column("capacity_read_dooms", [](const SetCounters& c) {
          return c.capacity_read_dooms;
        });
        {
          w.key("occupancy");
          w.begin_array();
          for (std::uint32_t o : lv.occupancy) {
            w.value(static_cast<std::uint64_t>(o));
          }
          w.end_array();
        }
        w.end_object();
      }
      w.end_array();
      w.key("objects");
      w.begin_array();
      for (const NamedRegionRec& o : r.set_objects) {
        w.begin_object();
        w.kv("name", o.name);
        w.kv_hex("base", o.base);
        w.kv("bytes", o.bytes);
        w.kv("lines", o.lines);
        w.kv("l1_set_start", static_cast<std::uint64_t>(o.l1_set_start));
        w.kv("l1_sets_covered",
             static_cast<std::uint64_t>(o.l1_sets_covered));
        w.kv("llc_set_start", static_cast<std::uint64_t>(o.llc_set_start));
        w.kv("llc_sets_covered",
             static_cast<std::uint64_t>(o.llc_sets_covered));
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }

    w.key("futexes");
    w.begin_array();
    for (const auto& [addr, fs] : r.futexes) {
      w.begin_object();
      w.kv_hex("addr", addr);
      w.kv("waits", fs.waits);
      w.kv("wakes", fs.wakes);
      w.end_object();
    }
    w.end_array();

    w.key("blocked");
    w.begin_object();
    w.kv("slices", r.blocked_slices);
    w.kv("cycles", r.blocked_cycles);
    w.end_object();

    w.kv("attempts_recorded",
         static_cast<std::uint64_t>(r.attempts.size()));
    w.kv("attempts_dropped", r.attempts_dropped);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string Telemetry::chrome_trace() const {
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t run = 0; run < runs_.size(); ++run) {
    const RunRecord& r = runs_[run];
    const auto pid = static_cast<std::uint64_t>(run);

    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("name", "process_name");
    w.key("args");
    w.begin_object();
    w.kv("name", r.label);
    w.end_object();
    w.end_object();

    for (int t = 0; t < r.num_threads; ++t) {
      w.begin_object();
      w.kv("ph", "M");
      w.kv("pid", pid);
      w.kv("tid", static_cast<std::uint64_t>(t));
      w.kv("name", "thread_name");
      w.key("args");
      w.begin_object();
      w.kv("name", "hw thread " + std::to_string(t));
      w.end_object();
      w.end_object();
    }

    for (const AttemptRec& a : r.attempts_in_order()) {
      w.begin_object();
      w.kv("ph", "X");
      w.kv("pid", pid);
      w.kv("tid", static_cast<std::uint64_t>(a.tid));
      w.kv("ts", a.start);
      w.kv("dur", a.end > a.start ? a.end - a.start : 0);
      w.kv("cat", a.fallback ? "lock" : "txn");
      // The slice name carries the outcome: Perfetto colours by name, so
      // commits / each abort cause / fallbacks separate visually.
      w.kv("name", a.fallback ? std::string("fallback(lock held)")
                   : a.committed
                       ? std::string("txn commit")
                       : std::string("txn abort:") + to_string(a.cause));
      w.key("args");
      w.begin_object();
      w.kv("section", static_cast<std::uint64_t>(a.section));
      w.kv("attempt", static_cast<std::uint64_t>(a.attempt));
      w.kv("read_lines", static_cast<std::uint64_t>(a.read_lines));
      w.kv("write_lines", static_cast<std::uint64_t>(a.write_lines));
      w.kv_hex("site", a.site);
      w.end_object();
      w.end_object();
    }

    for (const BlockedSlice& b : r.blocked_in_order()) {
      w.begin_object();
      w.kv("ph", "X");
      w.kv("pid", pid);
      w.kv("tid", static_cast<std::uint64_t>(b.tid));
      w.kv("ts", b.start);
      w.kv("dur", b.end > b.start ? b.end - b.start : 0);
      w.kv("cat", "sched");
      w.kv("name", "blocked(futex)");
      w.key("args");
      w.begin_object();
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  // Virtual cycles are presented in the `ts` microsecond field; there is no
  // wall-clock anywhere in this file.
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return w.take();
}

// Artifact writes go through <path>.tmp + rename (sim/fsio.h): a sweep
// driver polling the path, or a run interrupted mid-write, can never see a
// torn JSON file.
bool Telemetry::write_json(const std::string& path,
                           const std::string& bench_name) const {
  return atomic_write_file(path, json(bench_name));
}

bool Telemetry::write_chrome_trace(const std::string& path) const {
  return atomic_write_file(path, chrome_trace());
}

}  // namespace tsxhpc::sim
