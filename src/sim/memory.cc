#include "sim/memory.h"

#include <string>

#include "sim/telemetry.h"

namespace tsxhpc::sim {

const char* to_string(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone: return "none";
    case AbortCause::kConflict: return "conflict";
    case AbortCause::kCapacityWrite: return "capacity";
    case AbortCause::kExplicit: return "explicit";
    case AbortCause::kSyscall: return "syscall";
    case AbortCause::kNesting: return "nesting";
    case AbortCause::kLockBusy: return "lock-busy";
    case AbortCause::kCapacityRead: return "capacity-read";
    default: return "?";
  }
}

const char* to_string(MemLevel level) {
  switch (level) {
    case MemLevel::kL1: return "l1";
    case MemLevel::kXfer: return "xfer";
    case MemLevel::kLlc: return "llc";
    case MemLevel::kDram: return "dram";
    default: return "?";
  }
}

MemorySystem::MemorySystem(const MachineConfig& cfg,
                           std::vector<ThreadStats>& stats)
    : cfg_(cfg), stats_(stats), heap_(cfg.line_bytes) {
  if (cfg_.line_bytes == 0 || (cfg_.line_bytes & (cfg_.line_bytes - 1)) != 0) {
    throw SimError("line_bytes must be a power of two");
  }
  line_shift_ = static_cast<unsigned>(__builtin_ctz(cfg_.line_bytes));
  if ((cfg_.l1_sets() & (cfg_.l1_sets() - 1)) != 0) {
    throw SimError("L1 set count must be a power of two");
  }
  const Topology& topo = cfg_.topology;
  if (topo.num_sockets < 1) throw SimError("topology needs >= 1 socket");
  if (cfg_.num_cores % topo.num_sockets != 0) {
    throw SimError("num_cores must be a multiple of num_sockets");
  }
  if (topo.cores_per_socket > 0 &&
      topo.cores_per_socket * topo.num_sockets != cfg_.num_cores) {
    throw SimError("cores_per_socket * num_sockets must equal num_cores");
  }
  if (topo.llc_slices < 1 || topo.llc_slices % topo.num_sockets != 0) {
    throw SimError("llc_slices must be a positive multiple of num_sockets");
  }
  if (cfg_.num_hw_threads() > 64 || cfg_.num_cores > 64) {
    throw SimError("topology exceeds 64 hardware threads/cores "
                   "(ThreadMask/CoreMask width)");
  }
  // Each slice carries the full configured llc geometry (capacity scales
  // with slices, like hardware core tiles), so per-slice inclusion over a
  // whole L1 stays structurally possible.
  if (static_cast<std::size_t>(cfg_.llc_sets()) * cfg_.llc_ways <
      static_cast<std::size_t>(cfg_.l1_sets()) * cfg_.l1_ways) {
    throw SimError("LLC slice must be at least as large as one L1 "
                   "(inclusive)");
  }
  // Install the configured placement strategy before any workload
  // allocates; the strategy steers against the same set geometry the
  // capacity model charges (write sets = L1, read sets = the owning LLC
  // slice).
  heap_.set_strategy(make_alloc_strategy(
      cfg_.alloc_strategy,
      AllocGeometry{cfg_.line_bytes, cfg_.l1_sets(), cfg_.l1_ways,
                    cfg_.llc_sets(), cfg_.llc_ways, topo.llc_slices}));
  l1_.reserve(cfg_.num_cores);
  for (int c = 0; c < cfg_.num_cores; ++c) {
    l1_.emplace_back(cfg_.l1_sets(), cfg_.l1_ways);
  }
  llc_.reserve(topo.llc_slices);
  for (int s = 0; s < topo.llc_slices; ++s) {
    llc_.emplace_back(cfg_.llc_sets(), cfg_.llc_ways);
  }
  tx_.resize(cfg_.num_hw_threads());
  for (ThreadId t = 0; t < cfg_.num_hw_threads(); ++t) {
    core_of_thread_.push_back(cfg_.core_of(t));
  }
  for (int c = 0; c < cfg_.num_cores; ++c) {
    socket_of_core_.push_back(cfg_.socket_of_core(c));
    local_slice_of_core_.push_back(cfg_.local_slice_of_core(c));
  }
  for (int s = 0; s < topo.llc_slices; ++s) {
    socket_of_slice_.push_back(cfg_.socket_of_slice(s));
  }
  slice_stats_.assign(topo.llc_slices, SliceStats{});
  socket_stats_.assign(topo.num_sockets, SocketStats{});
  topo_multi_ = topo.llc_slices > 1 || topo.num_sockets > 1;
  set_stats_ = cfg_.set_stats;
  // Allocate the per-set tables up front so the charge sites never race a
  // missing reset (Machine::run re-zeros them at each region entry).
  if (set_stats_) reset_set_stats();
}

void MemorySystem::reset_set_stats() {
  for (CacheLevel& l1 : l1_) l1.reset_set_stats();
  for (CacheLevel& slice : llc_) slice.reset_set_stats();
}

void MemorySystem::reset_topology_stats() {
  slice_stats_.assign(slice_stats_.size(), SliceStats{});
  socket_stats_.assign(socket_stats_.size(), SocketStats{});
}

int MemorySystem::home_socket(Addr line, int requester_socket) {
  const Topology& topo = cfg_.topology;
  if (topo.num_sockets == 1) return 0;
  if (topo.map == MapPolicy::kSharingAware) {
    return line_home_.try_emplace(line, requester_socket).first->second;
  }
  return static_cast<int>(line % topo.num_sockets);
}

void MemorySystem::check_alignment(Addr a, unsigned size) const {
  if (size == 0 || size > 8 || (size & (size - 1)) != 0 ||
      (a & (size - 1)) != 0) {
    throw SimError("unaligned or invalid-size access: addr=" +
                   std::to_string(a) + " size=" + std::to_string(size));
  }
}

bool MemorySystem::doom(ThreadId victim, AbortCause cause, Addr line,
                        ThreadId aggressor, bool is_write) {
  TxState& v = tx_[victim];
  if (!v.active || v.doomed) return false;
  v.doomed = true;
  v.doom_cause = cause;
  v.doom_line = line;
  v.doom_aggressor = aggressor;
  v.doom_was_write = is_write;
  stats_[victim].tx_doomed_by_remote++;
  return true;
}

void MemorySystem::detect_conflicts(ThreadId t, Addr line, bool is_write,
                                    const CacheLevel::Entry* e) {
  TxMasks sets;
  if (e != nullptr) {
    sets = e->tx_sets;
  } else if (!tx_overflow_.empty()) {
    if (auto it = tx_overflow_.find(line); it != tx_overflow_.end()) {
      sets = it->second;
    }
  }
  // A read conflicts with remote transactional writers; a write conflicts
  // with remote transactional readers *and* writers.
  ThreadMask victims = sets.writers;
  if (is_write) victims |= sets.readers;
  victims &= ~(ThreadMask{1} << t);
  const Addr line_addr = line * cfg_.line_bytes;
  while (victims != 0) {
    int v = __builtin_ctzll(victims);
    victims &= victims - 1;
    if (doom(v, AbortCause::kConflict, line_addr, t, is_write) && tel_) {
      tel_->on_conflict(t, v, line_addr, is_write, heap_.name_of(line_addr));
    }
  }
}

void MemorySystem::tx_track(ThreadId t, Addr line, CacheLevel::Entry& e,
                            bool is_write) {
  const ThreadMask bit = ThreadMask{1} << t;
  ThreadMask& mask = is_write ? e.tx_sets.writers : e.tx_sets.readers;
  if ((mask & bit) != 0) return;
  mask |= bit;
  (is_write ? tx_[t].write_lines : tx_[t].read_lines).push_back(line);
}

bool MemorySystem::read_evict_dooms(Addr line) {
  std::uint64_t z = (line * 0x9E3779B97F4A7C15ULL) ^
                    (++evict_events_ * 0xBF58476D1CE4E5B9ULL);
  z ^= z >> 31;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 29;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
  return u < cfg_.read_evict_abort_prob;
}

void MemorySystem::on_l1_eviction(const CacheTouch& touch) {
  const Addr evicted_addr = touch.evicted_line * cfg_.line_bytes;
  // Evicting a line a transaction has *written* destroys its speculative
  // data: immediate capacity abort (Section 2).
  if (touch.evicted_tx_writer >= 0) {
    if (doom(touch.evicted_tx_writer, AbortCause::kCapacityWrite,
             evicted_addr, /*aggressor=*/-1, /*is_write=*/true) &&
        tel_) {
      tel_->on_capacity(touch.evicted_tx_writer, evicted_addr,
                        /*read_line=*/false, heap_.name_of(evicted_addr));
    }
  }
  // Evicted *read* lines move to the secondary tracking structure. While
  // the line stays resident in its owning slice (guaranteed here — the
  // slices are inclusive) the tracker holds it safely; the abort risk
  // materializes only if the slice later loses the line (on_llc_eviction).
  ThreadMask readers = touch.evicted_tx_readers;
  while (readers != 0) {
    int r = __builtin_ctzll(readers);
    readers &= readers - 1;
    stats_[r].tx_read_lines_evicted++;
  }
}

void MemorySystem::on_llc_eviction(const CacheTouch& touch, int slice) {
  const Addr line = touch.evicted_line;
  const Addr evicted_addr = line * cfg_.line_bytes;

  // Write-set capacity: the (inclusion-mandated) back-invalidation below
  // destroys the speculative data of any transactionally written copy.
  ThreadMask writers = touch.evicted_tx_sets.writers;
  while (writers != 0) {
    int w = __builtin_ctzll(writers);
    writers &= writers - 1;
    if (doom(w, AbortCause::kCapacityWrite, evicted_addr, /*aggressor=*/-1,
             /*is_write=*/true) &&
        tel_) {
      tel_->on_capacity(w, evicted_addr, /*read_line=*/false,
                        heap_.name_of(evicted_addr));
    }
  }

  // Read-set capacity: the slice backing the secondary tracker lost the
  // line. Readers still holding it in their L1 were precisely tracked until
  // now and enter the secondary structure as they are back-invalidated;
  // either way each reader takes one deterministic imprecision draw.
  ThreadMask readers = touch.evicted_tx_sets.readers;
  while (readers != 0) {
    int r = __builtin_ctzll(readers);
    readers &= readers - 1;
    if (l1_[core_of(r)].contains(line)) {
      stats_[r].tx_read_lines_evicted++;
    }
    if (cfg_.read_evict_abort_prob > 0.0) {
      if (set_stats_) {
        llc_[slice].set_stats(llc_[slice].set_of(line)).doom_draws++;
      }
      if (read_evict_dooms(line) &&
          doom(r, AbortCause::kCapacityRead, evicted_addr, /*aggressor=*/-1,
               /*is_write=*/false) &&
          tel_) {
        tel_->on_capacity(r, evicted_addr, /*read_line=*/true,
                          heap_.name_of(evicted_addr));
      }
    }
  }

  // The masks outlive the entry: doomed or not, each thread keeps its bit
  // until it commits or rolls back, so the overflow map holds them until
  // then or until a DRAM fill of the line takes them back.
  if (touch.evicted_tx_sets.any()) {
    tx_overflow_.emplace(line, touch.evicted_tx_sets);
  }

  // Inclusion: drop every L1 copy. Directory state (the entry's dirty/
  // sharer bits) dies with the slice's entry — nothing is leaked for dead
  // lines. The sharer mask can over-approximate (L1s evict silently), so
  // some of these are no-ops.
  CoreMask cores = touch.evicted_sharers;
  if (touch.evicted_dirty_core >= 0) {
    cores |= CoreMask{1} << touch.evicted_dirty_core;
  }
  while (cores != 0) {
    const int c = __builtin_ctzll(cores);
    cores &= cores - 1;
    if (l1_[c].invalidate(line) && set_stats_) {
      // Only count copies actually dropped: the sharer mask can
      // over-approximate. Coherence invalidations (update_directory) are
      // deliberately not counted here — back-invalidation pressure is the
      // inclusion-driven component.
      l1_[c].set_stats(l1_[c].set_of(line)).back_invalidations++;
    }
  }
}

void MemorySystem::update_directory(Addr line, CacheLevel::Entry& e,
                                    int core, bool is_write) {
  const CoreMask self = CoreMask{1} << core;
  if (is_write) {
    // Invalidate all other cores' copies and take dirty ownership.
    CoreMask others = e.sharers;
    if (e.dirty_core >= 0) others |= CoreMask{1} << e.dirty_core;
    others &= ~self;
    while (others != 0) {
      l1_[__builtin_ctzll(others)].invalidate(line);
      others &= others - 1;
    }
    e.dirty_core = core;
    e.sharers = self;
  } else {
    if (e.dirty_core >= 0 && e.dirty_core != core) e.dirty_core = -1;
    e.sharers |= self;
  }
}

CacheLevel::Entry& MemorySystem::linked_llc_entry(CacheLevel& llc,
                                                  const CacheLevel::Entry& l1e,
                                                  Addr line) {
  CacheLevel::Entry* e = llc.at(l1e.llc_slot, line);
  if (e == nullptr) {
    // Every L1-resident line must be resident in its owning slice, in the
    // slot it was filled into; a mismatch is a bug in the back-invalidation
    // plumbing, not a workload condition.
    throw SimError("inclusive-LLC invariant violated");
  }
  return *e;
}

AccessResult MemorySystem::cache_access(ThreadId t, Addr line, bool is_write) {
  const int core = core_of(t);
  const int socket = socket_of_core_[core];
  const bool tx_active = tx_[t].active;
  const bool tx_write = tx_active && is_write;
  const bool tx_read = tx_active && !is_write;
  const int slice = slice_of(line);
  CacheLevel& llc = llc_[slice];
  CacheLevel& l1 = l1_[core];
  // An L1 copy links to the line's LLC entry, so an L1 hit scans one set.
  // L1 fills and evictions never mutate the LLC, so `e` stays valid up to
  // the DRAM fill below.
  CacheLevel::Entry* l1e = l1.find(line);
  CacheLevel::Entry* e =
      l1e != nullptr ? &linked_llc_entry(llc, *l1e, line) : llc.find(line);
  detect_conflicts(t, line, is_write, e);

  ThreadStats& st = stats_[t];
  st.mem_accesses++;
  SocketStats& sock = socket_stats_[socket];
  sock.accesses++;

  SetCounters* l1set =
      set_stats_ ? &l1.set_stats(l1.set_of(line)) : nullptr;

  AccessResult r;
  if (l1e != nullptr) {
    l1.promote(l1e);
    CacheLevel::mark(*l1e, t, tx_write, tx_read);
    llc.promote(e);
    r.latency = cfg_.lat_l1_hit;
    r.level = MemLevel::kL1;
    st.l1_hits++;
    if (l1set) l1set->hits++;
    // An L1 hit never consults the interconnect: no hop, straight to the
    // directory update below.
    update_directory(line, *e, core, is_write);
    if (tx_active) tx_track(t, line, *e, is_write);
    return r;
  }

  CacheTouch l1t;
  l1e = &l1.fill(line, l1t);
  CacheLevel::mark(*l1e, t, tx_write, tx_read);
  if (l1t.evicted) {
    st.l1_evictions++;
    // The victim lives in the same L1 set as the fill that displaced it.
    if (l1set) l1set->evictions++;
    on_l1_eviction(l1t);
  }

  st.l1_misses++;
  if (l1set) l1set->misses++;  // every L1 miss allocated in this set
  SliceStats& slst = slice_stats_[slice];
  // Interconnect model: any access that leaves the core consults the
  // owning slice's directory, paying a hop to a non-local slice (on-socket
  // ring) or to a remote socket.
  Cycles hop = 0;
  if (topo_multi_) {
    if (socket_of_slice_[slice] != socket) {
      hop += cfg_.topology.lat_hop_socket;
      st.socket_hops++;
      sock.socket_hops++;
    } else if (slice != local_slice_of_core_[core]) {
      hop += cfg_.topology.lat_hop_slice;
      st.slice_hops++;
      sock.slice_hops++;
    }
  }
  SetCounters* llcset =
      set_stats_ ? &llc.set_stats(llc.set_of(line)) : nullptr;
  if (e != nullptr) {
    // Served on-chip: a transfer from another core's L1 (the directory
    // says who has it and how) or a plain hit in the owning slice.
    if (e->dirty_core >= 0 && e->dirty_core != core) {
      r.latency = cfg_.lat_xfer_dirty;
      r.level = MemLevel::kXfer;
      st.xfers_in++;
      if (llcset) llcset->xfers++;
      slst.xfers++;
      // Forwarding a dirty line from a remote socket's core crosses the
      // interconnect a second time.
      if (topo_multi_ && socket_of_core_[e->dirty_core] != socket) {
        hop += cfg_.topology.lat_hop_socket;
        st.socket_hops++;
        sock.socket_hops++;
      }
    } else if ((e->sharers & ~(CoreMask{1} << core)) != 0) {
      r.latency = cfg_.lat_xfer_clean;
      r.level = MemLevel::kXfer;
      st.xfers_in++;
      if (llcset) llcset->xfers++;
      slst.xfers++;
    } else {
      r.latency = cfg_.lat_llc_hit;
      r.level = MemLevel::kLlc;
      st.llc_hits++;
      if (llcset) llcset->hits++;
      slst.hits++;
    }
    llc.promote(e);
  } else {
    // DRAM is the explicit miss endpoint, one per socket; a line is served
    // by its home socket's endpoint (interleaved or first-touch per the
    // map policy), paying the socket hop when the home is remote. The fill
    // allocates an entry in the owning slice (with fresh directory state)
    // and may evict a victim.
    r.latency = cfg_.lat_mem;
    r.level = MemLevel::kDram;
    st.llc_misses++;
    if (llcset) llcset->misses++;
    slst.misses++;
    if (home_socket(line, socket) == socket) {
      sock.dram_local++;
    } else {
      sock.dram_remote++;
      hop += cfg_.topology.lat_hop_socket;
      st.socket_hops++;
      sock.socket_hops++;
    }
    CacheTouch fill;
    e = &llc.fill(line, fill);
    if (fill.evicted) {
      st.llc_evictions++;
      if (llcset) llcset->evictions++;
      slst.evictions++;
      on_llc_eviction(fill, slice);
    }
    if (!tx_overflow_.empty()) {
      if (auto node = tx_overflow_.extract(line)) e->tx_sets = node.mapped();
    }
  }
  l1e->llc_slot = llc.slot_of(*e);
  r.latency += hop;
  st.hop_cycles += hop;
  update_directory(line, *e, core, is_write);
  if (tx_active) tx_track(t, line, *e, is_write);
  return r;
}

AccessResult MemorySystem::load(ThreadId t, Addr a, unsigned size) {
  check_alignment(a, size);
  const Addr line = line_of(a);
  TxState& tx = tx_[t];

  AccessResult r = cache_access(t, line, /*is_write=*/false);

  // Read our own speculative value if present.
  if (tx.active && !tx.write_buffer.empty()) {
    const Addr word = a & ~static_cast<Addr>(7);
    if (const std::uint64_t* buffered = tx.write_buffer.find(word)) {
      std::uint64_t w = *buffered;
      const unsigned shift = static_cast<unsigned>(a - word) * 8;
      std::uint64_t mask =
          size == 8 ? ~0ULL : ((1ULL << (size * 8)) - 1) << shift;
      r.value = (w & mask) >> shift;
      return r;
    }
  }
  r.value = heap_.read_word(a, size);
  return r;
}

AccessResult MemorySystem::store(ThreadId t, Addr a, std::uint64_t v,
                                 unsigned size) {
  check_alignment(a, size);
  const Addr line = line_of(a);
  TxState& tx = tx_[t];

  AccessResult r = cache_access(t, line, /*is_write=*/true);

  if (!tx.active) {
    heap_.write_word(a, v, size);
    return r;
  }

  // Merge into the word-granularity speculative buffer.
  const Addr word = a & ~static_cast<Addr>(7);
  bool fresh;
  std::uint64_t& w = tx.write_buffer.slot(word, fresh);
  if (fresh) w = heap_.read_word(word, 8);
  const unsigned shift = static_cast<unsigned>(a - word) * 8;
  const std::uint64_t mask =
      size == 8 ? ~0ULL : ((1ULL << (size * 8)) - 1) << shift;
  w = (w & ~mask) | ((v << shift) & mask);
  return r;
}

void MemorySystem::tx_begin(ThreadId t) {
  TxState& tx = tx_[t];
  if (tx.active) {
    // Flat nesting: just bump the depth.
    if (++tx.nest_depth > cfg_.max_nest_depth) {
      tx.nest_depth--;  // keep state consistent; caller rolls back
      tx.doomed = true;
      tx.doom_cause = AbortCause::kNesting;
    }
    return;
  }
  tx.active = true;
  tx.nest_depth = 1;
  tx.doomed = false;
  tx.doom_cause = AbortCause::kNone;
  stats_[t].tx_started++;
}

void MemorySystem::release_tx_lines(ThreadId t, bool invalidate_writes) {
  const ThreadMask keep = ~(ThreadMask{1} << t);
  const TxState& tx = tx_[t];
  CacheLevel& l1 = l1_[core_of(t)];
  auto release = [&](Addr line, ThreadMask TxMasks::*set) {
    // An L1-resident line reaches its LLC entry through the slot link.
    CacheLevel& llc = llc_[slice_of(line)];
    CacheLevel::Entry* l1e = l1.find(line);
    CacheLevel::Entry* e =
        l1e != nullptr ? &linked_llc_entry(llc, *l1e, line) : llc.find(line);
    if (e != nullptr) {
      e->tx_sets.*set &= keep;
    } else if (auto it = tx_overflow_.find(line); it != tx_overflow_.end()) {
      it->second.*set &= keep;
      if (!it->second.any()) tx_overflow_.erase(it);
    }
    if (l1e != nullptr) l1.clear_tx_marks(*l1e, t, invalidate_writes);
  };
  for (Addr line : tx.read_lines) release(line, &TxMasks::readers);
  for (Addr line : tx.write_lines) release(line, &TxMasks::writers);
}

void MemorySystem::tx_end(ThreadId t) {
  TxState& tx = tx_[t];
  if (!tx.active) throw SimError("XEND outside a transaction");
  if (tx.nest_depth > 1) {
    tx.nest_depth--;
    return;
  }
  // Publish the speculative writes.
  for (const auto& [word, value] : tx.write_buffer.words()) {
    heap_.write_word(word, value, 8);
  }
  release_tx_lines(t, /*invalidate_writes=*/false);
  tx.reset();
  stats_[t].tx_committed++;
}

void MemorySystem::tx_rollback(ThreadId t, AbortCause cause) {
  TxState& tx = tx_[t];
  if (!tx.active) throw SimError("rollback outside a transaction");
  // Per-set capacity attribution is charged here — next to the
  // tx_aborted[cause] increment it must reconcile with — not at doom time:
  // a doomed transaction can still roll back under a different cause (an
  // explicit abort racing the doom), in which case neither counter moves,
  // keeping sum(per-set dooms) == tx_aborted[capacity class] exact.
  if (set_stats_ && tx.doom_line != kNullAddr) {
    const Addr line = line_of(tx.doom_line);
    if (cause == AbortCause::kCapacityWrite) {
      CacheLevel& l1 = l1_[core_of(t)];
      l1.set_stats(l1.set_of(line)).capacity_write_dooms++;
    } else if (cause == AbortCause::kCapacityRead) {
      CacheLevel& slice = llc_[slice_of(line)];
      slice.set_stats(slice.set_of(line)).capacity_read_dooms++;
    }
  }
  release_tx_lines(t, /*invalidate_writes=*/true);
  tx.reset();
  stats_[t].tx_aborted[static_cast<size_t>(cause)]++;
}

void MemorySystem::reset_all_tx() {
  for (ThreadId t = 0; t < static_cast<ThreadId>(tx_.size()); ++t) {
    if (!tx_[t].active) continue;
    release_tx_lines(t, /*invalidate_writes=*/true);
    tx_[t].reset();
  }
}

}  // namespace tsxhpc::sim
