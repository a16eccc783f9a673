#include "sim/machine.h"

#include <string>
#include <utility>
#include <vector>

#include "sim/telemetry.h"

namespace tsxhpc::sim {

namespace {

/// Snapshot one CacheLevel's per-set counters + end-of-run occupancy.
LevelSetStats snapshot_level(std::string name, const CacheLevel& lvl) {
  LevelSetStats s;
  s.level = std::move(name);
  s.sets = lvl.sets();
  s.ways = lvl.ways();
  s.counters = lvl.set_stats();
  s.occupancy = lvl.occupancy_by_set();
  return s;
}

/// Named-object -> set attribution: a contiguous line range maps onto a
/// wrapped span of `sets` consecutive set indices (pure geometry — identical
/// for every L1 instance, so it is computed once per level kind).
NamedRegionRec attribute_region(const SharedHeap::Region& reg,
                                const MachineConfig& cfg) {
  NamedRegionRec o;
  o.name = reg.name;
  o.base = reg.base;
  o.bytes = reg.end - reg.base;
  const Addr first_line = cfg.line_of(reg.base);
  const Addr last_line = cfg.line_of(reg.end - 1);
  o.lines = last_line - first_line + 1;
  const auto span = [&](std::uint32_t sets, std::uint32_t& start,
                        std::uint32_t& covered) {
    start = static_cast<std::uint32_t>(first_line) & (sets - 1);
    covered = static_cast<std::uint32_t>(
        o.lines < sets ? o.lines : static_cast<std::uint64_t>(sets));
  };
  span(cfg.l1_sets(), o.l1_set_start, o.l1_sets_covered);
  span(cfg.llc_sets(), o.llc_set_start, o.llc_sets_covered);
  return o;
}

}  // namespace

Machine::Machine(MachineConfig cfg) : cfg_(cfg) {
  stats_.resize(cfg_.num_hw_threads());
  try {
    mem_ = std::make_unique<MemorySystem>(cfg_, stats_);
  } catch (const SimError& e) {
    throw ConfigError(e.what());
  }
  set_telemetry(cfg_.telemetry);
}

void Machine::set_telemetry(Telemetry* tel) {
  telemetry_ = tel;
  mem_->set_telemetry(tel);
  futex_.set_telemetry(tel);
}

RunStats Machine::run(const RunSpec& spec) {
  const bool per_thread = !spec.bodies.empty();
  if (!per_thread && !spec.body) {
    throw SimError("RunSpec: neither body nor bodies set");
  }
  if (per_thread && spec.body) {
    throw SimError("RunSpec: body and bodies are mutually exclusive");
  }
  const int n = per_thread ? static_cast<int>(spec.bodies.size()) : spec.threads;

  for (auto& s : stats_) s = ThreadStats{};
  mem_->reset_all_tx();
  // Per-set counters cover one run, like ThreadStats — cache *contents*
  // stay warm across runs, the counters do not. The same holds for the v6
  // per-slice/per-socket topology counters.
  if (mem_->set_stats_enabled()) mem_->reset_set_stats();
  mem_->reset_topology_stats();
  futex_.clear();

  engine_ = std::make_unique<Engine>(cfg_, n);
  engine_->set_telemetry(telemetry_);
  if (telemetry_) {
    telemetry_->begin_run(n, &stats_, to_string(cfg_.backend), spec.label);
  }
  std::vector<std::function<void()>> wrapped;
  wrapped.reserve(n);
  for (ThreadId t = 0; t < n; ++t) {
    wrapped.emplace_back([this, t, per_thread, &spec] {
      Context ctx(*this, t);
      (per_thread ? spec.bodies[t] : spec.body)(ctx);
      if (mem_->in_tx(t)) {
        throw SimError("thread body returned inside an open transaction");
      }
    });
  }
  try {
    engine_->run(wrapped);
  } catch (...) {
    if (telemetry_) telemetry_->abandon_run();
    engine_.reset();
    throw;
  }

  RunStats rs;
  rs.threads.assign(stats_.begin(), stats_.begin() + n);
  for (ThreadId t = 0; t < n; ++t) rs.threads[t].end_cycle = engine_->end_clock(t);
  rs.makespan = engine_->makespan();
  engine_.reset();
  if (telemetry_ && mem_->set_stats_enabled()) {
    std::vector<LevelSetStats> levels;
    const int slices = mem_->num_slices();
    levels.reserve(static_cast<std::size_t>(cfg_.num_cores) + slices);
    for (int c = 0; c < cfg_.num_cores; ++c) {
      levels.push_back(
          snapshot_level("l1.c" + std::to_string(c), mem_->l1_of_core(c)));
    }
    // One level per LLC slice. A single-slice machine keeps the historic
    // "llc" name (baselines stay byte-identical); sliced machines key the
    // levels "llc.s<i>".
    for (int s = 0; s < slices; ++s) {
      levels.push_back(snapshot_level(
          slices == 1 ? std::string("llc") : "llc.s" + std::to_string(s),
          mem_->llc(s)));
    }
    std::vector<NamedRegionRec> objects;
    objects.reserve(mem_->heap().regions().size());
    for (const SharedHeap::Region& reg : mem_->heap().regions()) {
      objects.push_back(attribute_region(reg, cfg_));
    }
    telemetry_->record_set_stats(std::move(levels), std::move(objects),
                                 cfg_.line_bytes);
  }
  if (telemetry_) {
    TopologyRec topo;
    topo.sockets = cfg_.topology.num_sockets;
    topo.cores_per_socket = cfg_.cores_per_socket();
    topo.slices = mem_->num_slices();
    topo.map = to_string(cfg_.topology.map);
    topo.lat_hop_slice = cfg_.topology.lat_hop_slice;
    topo.lat_hop_socket = cfg_.topology.lat_hop_socket;
    topo.slice_stats = mem_->slice_stats();
    topo.socket_stats = mem_->socket_stats();
    telemetry_->record_topology(std::move(topo));
    telemetry_->end_run(rs);
  }
  return rs;
}

}  // namespace tsxhpc::sim
