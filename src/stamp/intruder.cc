// STAMP intruder: network intrusion detection pipeline. Threads pop packet
// fragments from a shared capture queue (a transactional hot spot), insert
// them into a per-flow reassembly map, and push completed flows to a
// detector queue. The queue heads make this one of STAMP's most
// conflict-heavy workloads (Table 1: tl2 32-57%).
#include "stamp/common.h"

#include "containers/hashmap.h"
#include "containers/queue.h"

namespace tsxhpc::stamp {

Result run_intruder(const Config& cfg) {
  Machine m(cfg.machine);
  TmRuntime rt(m, cfg.backend);
  TxArena arena(m);

  const std::size_t n_flows = scaled(cfg.scale, 512, 16);
  constexpr std::uint64_t kFragsPerFlow = 4;

  containers::TmQueue capture(m, arena);
  containers::TmQueue detector(m, arena);
  // flow id -> fragments seen so far.
  containers::TmHashMap assembly(m, arena, 512);
  auto flows_done = Shared<std::uint64_t>::alloc(m, {.name = "intruder/flows_done"}, 0);
  auto attacks = Shared<std::uint64_t>::alloc(m, {.name = "intruder/attacks"}, 0);

  // Seed the capture queue with all fragments in shuffled order.
  std::vector<std::uint64_t> frags;
  frags.reserve(n_flows * kFragsPerFlow);
  for (std::uint64_t f = 1; f <= n_flows; ++f) {
    for (std::uint64_t i = 0; i < kFragsPerFlow; ++i) {
      frags.push_back(f * 16 + i);
    }
  }
  Xoshiro256 rng(cfg.seed);
  for (std::size_t i = frags.size(); i > 1; --i) {
    std::swap(frags[i - 1], frags[rng.next_below(i)]);
  }
  for (std::uint64_t v : frags) capture.seed(m, v);

  Result r = run_region(cfg, m, rt, [&](Context& c, TmThread& t) {
    // Stage 1+2: drain the capture queue, reassemble flows.
    for (;;) {
      bool done = false;
      std::uint64_t frag = 0;
      t.atomic([&](TmAccess& tm) {  // capture-queue pop (hot spot)
        done = false;
        const auto v = capture.pop(tm);
        if (!v) {
          done = true;
          return;
        }
        frag = *v;
      });
      if (done) break;
      const std::uint64_t flow = frag / 16;
      c.compute(60);  // fragment decode
      t.atomic([&](TmAccess& tm) {  // reassembly map update
        const auto seen = assembly.find(tm, flow);
        const std::uint64_t count = seen ? *seen + 1 : 1;
        if (count == kFragsPerFlow) {
          assembly.remove(tm, flow);
          detector.push(tm, flow);
          tm.write(flows_done.addr(), tm.read(flows_done.addr()) + 1);
        } else if (seen) {
          assembly.put(tm, flow, count);
        } else {
          assembly.insert(tm, flow, count);
        }
      });
    }
    // Stage 3: detector — drain completed flows and scan them.
    for (;;) {
      bool done = false;
      std::uint64_t flow = 0;
      t.atomic([&](TmAccess& tm) {
        done = false;
        const auto v = detector.pop(tm);
        if (!v) {
          done = true;
          return;
        }
        flow = *v;
      });
      if (done) break;
      c.compute(220);  // signature scan over the reassembled payload
      if ((flow * 2654435761u) % 8 == 0) {
        attacks.fetch_add(c, 1);
      }
    }
  });

  // Every flow must have been fully reassembled and scanned.
  r.checksum = flows_done.peek(m) * 131 + attacks.peek(m);
  return r;
}

}  // namespace tsxhpc::stamp
