#include "clomp/clomp.h"

#include "sim/rng.h"
#include "sim/shared.h"
#include "sync/locks.h"

namespace tsxhpc::clomp {

using sim::Addr;
using sim::Context;
using sim::Machine;
using sim::Shared;
using sim::SharedArray;

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kSerial: return "serial";
    case Scheme::kSmallAtomic: return "small-atomic";
    case Scheme::kSmallCritical: return "small-critical";
    case Scheme::kLargeCritical: return "large-critical";
    case Scheme::kSmallTM: return "small-tm";
    case Scheme::kLargeTM: return "large-tm";
  }
  return "?";
}

namespace {

/// The wired mesh: per-zone scatter target lists plus the shared value and
/// coordinate arrays (packed, as in the original benchmark's zone arrays).
struct Mesh {
  Mesh(Machine& m, const Config& cfg, int total_zones)
      : values(SharedArray<std::uint64_t>::alloc(m, {.name = "clomp/values"}, total_zones, 0)),
        coords(SharedArray<std::uint64_t>::alloc(m, {.name = "clomp/coords"}, total_zones, 0)) {
    sim::Xoshiro256 rng(cfg.seed);
    const int per_thread = cfg.zones_per_thread;
    targets.resize(total_zones);
    for (int z = 0; z < total_zones; ++z) {
      const int owner = z / per_thread;
      targets[z].reserve(cfg.scatters_per_zone);
      for (int s = 0; s < cfg.scatters_per_zone; ++s) {
        int target_part = owner;
        if (cfg.cross_partition_fraction > 0.0 &&
            rng.next_bool(cfg.cross_partition_fraction)) {
          target_part =
              static_cast<int>(rng.next_below(total_zones / per_thread));
        }
        targets[z].push_back(target_part * per_thread +
                             static_cast<int>(rng.next_below(per_thread)));
      }
    }
    for (int z = 0; z < total_zones; ++z) {
      coords.at(z).init(m, 1 + (z * 2654435761u) % 97);
    }
  }

  SharedArray<std::uint64_t> values;
  SharedArray<std::uint64_t> coords;
  std::vector<std::vector<int>> targets;
};

/// One scatter update: read the target's coordinate, compute, deposit.
/// `deposit` performs the synchronized add.
template <typename DepositFn>
void scatter_update(Context& c, const Config& cfg, Mesh& mesh, int target,
                    DepositFn&& deposit) {
  const std::uint64_t coord = mesh.coords.at(target).load(c);
  c.compute(cfg.compute_per_update);
  deposit(target, coord + 1);
}

}  // namespace

Result run(const Config& cfg, Scheme scheme) {
  Machine m(cfg.machine);
  const int threads = scheme == Scheme::kSerial ? 1 : cfg.threads;
  const int total_zones = cfg.threads * cfg.zones_per_thread;
  Mesh mesh(m, cfg, total_zones);
  sync::SpinLock global_lock(m);
  sync::ElidedLock elided(m);

  auto body = [&](Context& c) {
    // With T worker threads each owns total_zones/T contiguous zones; the
    // serial run owns all of them.
    const int zones_per_worker = total_zones / threads;
    const int z0 = c.tid() * zones_per_worker;
    const int z1 = z0 + zones_per_worker;
    for (int rep = 0; rep < cfg.repetitions; ++rep) {
      for (int z = z0; z < z1; ++z) {
        const auto& tgts = mesh.targets[z];
        switch (scheme) {
          case Scheme::kSerial:
            for (int t : tgts) {
              scatter_update(c, cfg, mesh, t, [&](int tz, std::uint64_t v) {
                // Unsynchronized plain add.
                mesh.values.at(tz).store(c, mesh.values.at(tz).load(c) + v);
              });
            }
            break;
          case Scheme::kSmallAtomic:
            for (int t : tgts) {
              scatter_update(c, cfg, mesh, t, [&](int tz, std::uint64_t v) {
                mesh.values.at(tz).fetch_add(c, v);
              });
            }
            break;
          case Scheme::kSmallCritical:
            for (int t : tgts) {
              scatter_update(c, cfg, mesh, t, [&](int tz, std::uint64_t v) {
                sync::Guard<sync::SpinLock> g(c, global_lock);
                mesh.values.at(tz).store(c, mesh.values.at(tz).load(c) + v);
              });
            }
            break;
          case Scheme::kLargeCritical: {
            sync::Guard<sync::SpinLock> g(c, global_lock);
            for (int t : tgts) {
              scatter_update(c, cfg, mesh, t, [&](int tz, std::uint64_t v) {
                mesh.values.at(tz).store(c, mesh.values.at(tz).load(c) + v);
              });
            }
            break;
          }
          case Scheme::kSmallTM:
            for (int t : tgts) {
              scatter_update(c, cfg, mesh, t, [&](int tz, std::uint64_t v) {
                elided.critical(c, [&] {
                  mesh.values.at(tz).store(c, mesh.values.at(tz).load(c) + v);
                });
              });
            }
            break;
          case Scheme::kLargeTM:
            elided.critical(c, [&] {
              for (int t : tgts) {
                scatter_update(c, cfg, mesh, t, [&](int tz, std::uint64_t v) {
                  mesh.values.at(tz).store(c, mesh.values.at(tz).load(c) + v);
                });
              }
            });
            break;
        }
      }
    }
  };

  Result r;
  r.scheme = scheme;
  sim::RunSpec spec;
  spec.threads = threads;
  spec.label = cfg.run_label;
  spec.body = body;
  r.stats = m.run(spec);
  r.makespan = r.stats.makespan;
  for (int z = 0; z < total_zones; ++z) {
    r.checksum += mesh.values.at(z).peek(m);
  }
  r.total_updates = static_cast<std::uint64_t>(total_zones) *
                    cfg.scatters_per_zone * cfg.repetitions;
  return r;
}

double speedup_vs_serial(const Config& cfg, Scheme scheme) {
  const Result serial = run(cfg, Scheme::kSerial);
  const Result par = run(cfg, scheme);
  return static_cast<double>(serial.makespan) /
         static_cast<double>(par.makespan);
}

}  // namespace tsxhpc::clomp
