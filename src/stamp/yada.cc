// STAMP yada: Delaunay mesh refinement (Ruppert's algorithm). Worker
// threads pop the worst "bad" element from a shared work heap, gather its
// cavity from the mesh registry, retriangulate (delete the cavity, insert
// new elements), and push any new bad elements.
//
// We reproduce the synchronization skeleton over an abstract element
// registry: a transaction performs one heap pop (hot spot), several ordered
// map reads (the cavity gather), a handful of deletes/inserts, and a
// conditional heap push — STAMP's medium/large transaction class with
// moderate-to-high conflict rates (Table 1: tl2 46-65%, tsx 46-92%).
#include "stamp/common.h"

#include "containers/heap.h"
#include "containers/rbtree.h"

namespace tsxhpc::stamp {

Result run_yada(const Config& cfg) {
  Machine m(cfg.machine);
  TmRuntime rt(m, cfg.backend);
  TxArena arena(m);

  const std::size_t n_initial = scaled(cfg.scale, 384, 16);
  // Quality (angle) encoded in the key's low bits; ids grow upward.
  containers::TmRbMap mesh(m, arena);
  containers::TmHeap work_heap(m, n_initial * 8);
  // Each thread allocates element ids from its own space (as STAMP's
  // per-thread TM allocator does); aborted attempts burn ids harmlessly.
  constexpr std::uint64_t kIdSpace = 1ull << 32;
  std::uint64_t created_total = 0, deleted_total = 0;

  // Seed the mesh with elements and the heap with the initially-bad ones.
  {
    TmRuntime setup_rt(m, Backend::kSgl);
    sim::RunSpec setup;
    setup.label = cfg.run_label;  // recorded as the "<label>" setup run
    setup.body = [&](Context& c) {
      TmThread t(setup_rt, c);
      Xoshiro256 rng(cfg.seed);
      for (std::size_t i = 1; i <= n_initial; ++i) {
        const std::uint64_t quality = rng.next_below(100);
        t.atomic([&](TmAccess& tm) { mesh.insert(tm, i, quality); });
        if (quality < 40) work_heap.seed(m, i);
      }
    };
    m.run(setup);
  }

  Result r = run_region(cfg, m, rt, [&](Context& c, TmThread& t) {
    std::uint64_t local_next_id = (c.tid() + 1) * kIdSpace;
    std::uint64_t local_created = 0, local_deleted = 0;
    for (;;) {
      // STAMP yada splits a refinement step into several transactions:
      // pop the work item, grow the cavity, then retriangulate. Keeping
      // the conflict-prone heap pop in its own short transaction is what
      // keeps the benchmark livable at 2-4 threads.
      bool done = false;
      std::uint64_t elem = 0;
      t.atomic([&](TmAccess& tm) {  // txn 1: grab the worst bad element
        done = false;
        const auto bad = work_heap.pop_min(tm);
        if (!bad) {
          done = true;
        } else {
          elem = *bad;
        }
      });
      if (done) break;

      std::uint64_t cavity[4];
      std::size_t n_cavity = 0;
      t.atomic([&](TmAccess& tm) {  // txn 2: gather the cavity
        n_cavity = 0;
        if (!mesh.contains(tm, elem)) return;  // already retriangulated
        cavity[n_cavity++] = elem;
        std::uint64_t probe = elem;
        for (int k = 0; k < 3; ++k) {
          const auto next = mesh.ceil_key(tm, probe + 1);
          if (!next) break;
          cavity[n_cavity++] = *next;
          probe = *next;
        }
      });
      if (n_cavity == 0) continue;
      c.compute(300);  // geometric predicates on the gathered cavity

      std::uint64_t txn_created = 0, txn_deleted = 0;
      t.atomic([&](TmAccess& tm) {  // txn 3: revalidate + retriangulate
        txn_created = txn_deleted = 0;
        for (std::size_t i = 0; i < n_cavity; ++i) {
          if (!mesh.contains(tm, cavity[i])) return;  // raced: retry item
        }
        for (std::size_t i = 0; i < n_cavity; ++i) {
          mesh.remove(tm, cavity[i]);
        }
        txn_deleted = n_cavity;
        const std::uint64_t base = local_next_id;
        local_next_id += n_cavity + 1;  // burned on abort; ids stay unique
        for (std::size_t i = 0; i <= n_cavity; ++i) {
          const std::uint64_t id = base + i;
          const std::uint64_t q = 30 + (id * 2654435761u) % 70;
          mesh.insert(tm, id, q);
          if (q < 40) work_heap.push(tm, id);
        }
        txn_created = n_cavity + 1;
      });
      local_created += txn_created;
      local_deleted += txn_deleted;
    }
    // Host-side accumulation (token-serialized, after commit only).
    created_total += local_created;
    deleted_total += local_deleted;
  });

  // Invariant: live mesh size == initial + created - deleted, and the
  // refinement terminated with an empty heap.
  std::uint64_t live = 0;
  mesh.peek_inorder(m, [&](std::uint64_t, std::uint64_t) { live++; });
  const bool ok = live == n_initial + created_total - deleted_total;
  r.checksum = ok ? 0xADA : 0;
  return r;
}

}  // namespace tsxhpc::stamp
