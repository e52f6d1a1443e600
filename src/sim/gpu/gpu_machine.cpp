#include "sim/gpu/gpu_machine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

namespace archgraph::sim {

namespace {
/// Scratchpad tag meaning "slot empty" — simulated addresses are dense
/// bump-allocated indices, so the all-ones word never occurs.
constexpr Addr kNoTag = ~Addr{0};
}  // namespace

void validate(const GpuConfig& c) {
  AG_CHECK(c.processors >= 1, "GpuConfig.processors must be >= 1 (got " +
                                  std::to_string(c.processors) + ")");
  AG_CHECK(c.warps_per_processor >= 1,
           "GpuConfig.warps_per_processor must be >= 1 (got " +
               std::to_string(c.warps_per_processor) + ")");
  AG_CHECK(c.warp_width >= 1, "GpuConfig.warp_width must be >= 1 (got " +
                                  std::to_string(c.warp_width) + ")");
  AG_CHECK(c.warp_width <= 64,
           "GpuConfig.warp_width must be <= 64, the widest lane mask (got " +
               std::to_string(c.warp_width) + ")");
  AG_CHECK(c.memory_latency >= 2,
           "GpuConfig.memory_latency must cover the round trip (>= 2, got " +
               std::to_string(c.memory_latency) + ")");
  AG_CHECK(c.mem_seg_bytes >= kWordBytes && c.mem_seg_bytes % kWordBytes == 0,
           "GpuConfig.mem_seg_bytes must be a positive multiple of the " +
               std::to_string(kWordBytes) + "-byte word (got " +
               std::to_string(c.mem_seg_bytes) + ")");
  AG_CHECK(c.smem_banks >= 1, "GpuConfig.smem_banks must be >= 1 (got " +
                                  std::to_string(c.smem_banks) + ")");
  AG_CHECK(c.smem_words >= 1, "GpuConfig.smem_words must be >= 1 (got " +
                                  std::to_string(c.smem_words) + ")");
  AG_CHECK(c.smem_latency >= 1, "GpuConfig.smem_latency must be >= 1 (got " +
                                    std::to_string(c.smem_latency) + ")");
  AG_CHECK(c.region_fork_cycles >= 0,
           "GpuConfig.region_fork_cycles must be >= 0 (got " +
               std::to_string(c.region_fork_cycles) + ")");
  AG_CHECK(c.barrier_overhead >= 0,
           "GpuConfig.barrier_overhead must be >= 0 (got " +
               std::to_string(c.barrier_overhead) + ")");
  AG_CHECK(std::isfinite(c.clock_hz) && c.clock_hz > 0,
           "GpuConfig.clock_hz must be positive and finite (got " +
               std::to_string(c.clock_hz) + ")");
}

GpuMachine::GpuMachine(GpuConfig config)
    // Priority order mirrors the occupancy story: if any lane has a memory
    // round trip in flight, its warp is stalled on latency the scheduler
    // failed to cover with other warps (coalesce_wait — the serialized
    // transactions and the unhidden tail are the same shortage); otherwise
    // parked sync waiters, then barrier waiters, explain the silence; with no
    // warp holding work at all the slot is idle (launch ramp, admission,
    // drain, or an unused SM).
    : Machine({.stall = {CycleCat::kCoalesceWait, CycleCat::kSyncBlocked,
                         CycleCat::kBarrier, CycleCat::kIdleNoThread},
               .barrier_latency = config.barrier_overhead,
               .wake_event = kRetry,
               .release_event = kRelease}),
      config_(config) {
  validate(config_);
  const u64 words_per_seg = config_.mem_seg_bytes / kWordBytes;
  if (std::has_single_bit(words_per_seg)) {
    seg_pow2_ = true;
    seg_shift_ = static_cast<u32>(std::countr_zero(words_per_seg));
  }
  if (std::has_single_bit(static_cast<u64>(config_.smem_banks))) {
    bank_mask_ = config_.smem_banks - 1;
  }
  if (std::has_single_bit(static_cast<u64>(config_.smem_words))) {
    smem_mask_ = config_.smem_words - 1;
  }
  bank_load_.assign(config_.smem_banks, 0);
  // At most warp_width segments per group, so the set stays at most half
  // full and a probe ends within a slot or two.
  const u64 seg_slots = std::bit_ceil(2 * u64{config_.warp_width});
  seg_set_.assign(seg_slots, SegSlot{});
  seg_hash_shift_ = 64 - static_cast<u32>(std::countr_zero(seg_slots));
}

bool GpuMachine::smem_probe(Sm& sm, Addr addr, bool fill) {
  const usize slot = smem_mask_ != 0
                         ? static_cast<usize>(addr & smem_mask_)
                         : static_cast<usize>(addr % sm.smem_tags.size());
  if (sm.smem_tags[slot] == addr) {
    return true;
  }
  if (fill) {
    sm.smem_tags[slot] = addr;  // write-allocate (timing only, no coherence)
  }
  return false;
}

void GpuMachine::open_region() {
  sms_.assign(config_.processors, Sm{});
  for (Sm& sm : sms_) {
    sm.smem_tags.assign(config_.smem_words, kNoTag);
  }

  // Warp formation: consecutive thread ids share a warp; warps map
  // round-robin over SMs. Warps beyond the per-SM residency wait for a slot
  // (a CUDA grid launches more blocks than fit; the hardware streams them in
  // as resident blocks retire).
  const u32 n = static_cast<u32>(threads_.size());
  const u32 warp_count = (n + config_.warp_width - 1) / config_.warp_width;
  warps_.assign(warp_count, Warp{});
  // Flat ring arena: each SM gets two power-of-two windows (ready,
  // admission). Round-robin warp placement bounds both queues by the SM's
  // warp share, and a warp sits in at most one ring at a time, so the
  // windows never overflow. Grow-only, so repeated regions reuse the arena.
  const u32 cap = ring_capacity_for(
      (warp_count + config_.processors - 1) / config_.processors);
  const usize arena_need = static_cast<usize>(cap) * 2 * config_.processors;
  if (ring_arena_.size() < arena_need) {
    ring_arena_.resize(arena_need);
  }
  for (u32 p = 0; p < config_.processors; ++p) {
    u32* base = ring_arena_.data() + static_cast<usize>(p) * 2 * cap;
    sms_[p].ready_fifo.bind(base, cap);
    sms_[p].admission_queue.bind(base + cap, cap);
  }
  for (u32 wid = 0; wid < warp_count; ++wid) {
    Warp& w = warps_[wid];
    w.sm = wid % config_.processors;
    w.first = wid * config_.warp_width;
    w.last = std::min(w.first + config_.warp_width, n);
    w.live = w.last - w.first;
  }
  for (u32 wid = 0; wid < warp_count; ++wid) {
    Sm& sm = sms_[warps_[wid].sm];
    if (sm.resident < config_.warps_per_processor) {
      admit_warp(wid, config_.region_fork_cycles);
    } else {
      sm.admission_queue.push(wid);
    }
  }
}

void GpuMachine::run_events() { run_events_for(*this); }

template <bool Profiled>
void GpuMachine::handle(const Event& e) {
  switch (static_cast<EventKind>(e.kind)) {
    case kIssue:
      handle_issue<Profiled>(static_cast<u32>(e.payload), e.time);
      break;
    case kComplete: {
      // Only satisfied full/empty flights complete one lane at a time now
      // (their issue interleaves the wake pushes of try_sync, so they
      // cannot batch); all of them held an in-flight slot.
      const auto tid = static_cast<u32>(e.payload);
      acct_complete(tid, e.time);
      --warps_[tid / config_.warp_width].in_flight;
      advance_thread(*threads_[tid]);
      post_advance(tid, e.time);
      break;
    }
    case kRetry:
      attempt_sync_retry(static_cast<u32>(e.payload), e.time);
      break;
    case kBatch: {
      // A whole compute or global-memory issue group lands together: the
      // lanes of Warp::landing for its kind, recorded at issue. No other
      // event touches them while they fly (only parked, barrier-released
      // or unadmitted lanes are resumed elsewhere), so the mask is exactly
      // the warp's lanes still in kWaitMemory on this kind. Ascending-tid
      // replay matches the order the per-lane events popped in.
      //
      // The per-lane acct_complete/maybe_enqueue_warp calls are hoisted
      // out of the loop: all group lanes share one SM and one op kind, so
      // after the first settle every later one is a no-op, and while the
      // loop runs w.in_flight > 0 (this round's groups land as a unit),
      // so only the final lane's enqueue attempt could ever fire — made
      // after the loop instead. on_finish stays inline: it retires warps
      // and admits queued ones, and that order is observable.
      const u32 wid = static_cast<u32>(e.payload >> 4);
      const auto kind = static_cast<OpKind>(e.payload & 0xF);
      Warp& w = warps_[wid];
      Ledger& acct = ledgers_[w.sm];
      settle(acct, e.time);
      const bool mem = kind != OpKind::kCompute;
      for (u64 m = w.landing[landing_slot(kind)]; m != 0; m &= m - 1) {
        const u32 tid = w.first + static_cast<u32>(std::countr_zero(m));
        if (mem) {
          --acct.acct_mem;  // the lane's global round trip landed
        }
        --w.in_flight;
        advance_thread(*threads_[tid]);
        if (pending_kind(tid) == OpKind::kDone) {
          on_finish(tid, e.time);
        } else {
          set_status(tid, ThreadState::Status::kRunnable);
        }
      }
      maybe_enqueue_warp(wid, e.time);
      break;
    }
    case kRelease:
      // Barrier lanes never held an in-flight slot (they were masked).
      for (const auto& [tid, arrival] : release_buf_) {
        acct_complete(tid, e.time);
        advance_thread(*threads_[tid]);
        post_advance(tid, e.time);
      }
      release_buf_.clear();
      break;
  }
}

void GpuMachine::admit_warp(u32 wid, Cycle now) {
  Warp& w = warps_[wid];
  w.resident = true;
  ++sms_[w.sm].resident;
  for (u32 tid = w.first; tid < w.last; ++tid) {
    threads_[tid]->processor = w.sm;
    advance_thread(*threads_[tid]);
    post_advance(tid, now);
  }
}

void GpuMachine::post_advance(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  if (ts->pending.kind == OpKind::kDone) {
    on_finish(tid, now);
  } else {
    set_status(tid, ThreadState::Status::kRunnable);
    maybe_enqueue_warp(tid / config_.warp_width, now);
  }
}

void GpuMachine::maybe_enqueue_warp(u32 wid, Cycle now) {
  Warp& w = warps_[wid];
  // Lockstep readiness: every lane's flight must have landed (the warp waits
  // for its slowest lane) and at least one lane must hold an issuable op.
  // Lanes parked on a tag or a barrier are masked: they neither hold a
  // flight nor count as issuable.
  if (!w.resident || w.queued || w.in_flight > 0 || w.live == 0) {
    return;
  }
  bool any_runnable = false;
  for (u32 tid = w.first; tid < w.last; ++tid) {
    if (status_of(tid) == ThreadState::Status::kRunnable) {
      any_runnable = true;
      break;
    }
  }
  if (!any_runnable) {
    return;
  }
  w.queued = true;
  Sm& sm = sms_[w.sm];
  sm.ready_fifo.push(wid);
  if (!sm.issue_scheduled) {
    sm.issue_scheduled = true;
    events_.push(std::max(now, sm.clock), kIssue, w.sm);
  }
}

template <bool Profiled>
void GpuMachine::handle_issue(u32 sm_id, Cycle now) {
  Sm& sm = sms_[sm_id];
  if (sm.ready_fifo.empty()) {
    sm.issue_scheduled = false;
    return;
  }
  const u32 wid = sm.ready_fifo.pop();
  Warp& w = warps_[wid];
  w.queued = false;

  // Cycle accounting: classify the silent gap up to this issue round, then
  // claim the round's slots group by group below.
  Ledger& acct = ledgers_[sm_id];
  settle(acct, now);

  // One pass over the lanes: the runnable mask (bit i = tid w.first + i)
  // and, per op kind, the runnable lanes presenting it.
  const u8* status = thread_status_.data() + w.first;
  const u8* kinds = pending_kind_.data() + w.first;
  const u32 width = w.last - w.first;
  constexpr auto kRunnable = static_cast<u8>(ThreadState::Status::kRunnable);
  std::array<u64, static_cast<usize>(OpKind::kDone) + 1> by_kind{};
  u64 runnable = 0;
  for (u32 i = 0; i < width; ++i) {
    const u64 bit = u64{status[i] == kRunnable} << i;
    runnable |= bit;
    by_kind[kinds[i]] |= bit;
  }
  AG_CHECK(runnable != 0, "warp queued with no runnable lane");

  // Divergence split: the runnable lanes partition by the operation they
  // present, in first-appearance order over ascending lane id — each group
  // is the kind of the lowest lane not yet issued. A convergent warp forms
  // one group; divergent paths issue serially, and every group after the
  // first charges its slots to kDivergenceSerial.
  Cycle t = now;
  CycleCat base_cat = CycleCat::kIssued;
  for (u64 rest = runnable; rest != 0;
       base_cat = CycleCat::kDivergenceSerial) {
    const auto kind = static_cast<OpKind>(kinds[std::countr_zero(rest)]);
    const u64 group = by_kind[static_cast<usize>(kind)];
    rest &= ~group;
    const i64 lanes = std::popcount(group);

    switch (kind) {
      case OpKind::kCompute: {
        // Lockstep ALU: the group occupies the SM for the longest lane's
        // slot count; every lane rides along for all of it.
        i64 v = 1;
        for (u64 m = group; m != 0; m &= m - 1) {
          const u32 tid = w.first + static_cast<u32>(std::countr_zero(m));
          v = std::max(v, threads_[tid]->pending.value);
          set_status(tid, ThreadState::Status::kWaitMemory);
        }
        claim(acct, base_cat, t + v);
        stats_.instructions += v;
        sm.issued += v;
        w.in_flight += static_cast<u32>(lanes);
        w.landing[landing_slot(kind)] = group;
        events_.push(t + v, kBatch,
                     (static_cast<u64>(wid) << 4) | static_cast<u64>(kind));
        t += v;
        break;
      }
      case OpKind::kLoad:
      case OpKind::kStore:
      case OpKind::kFetchAdd: {
        // Coalescing: loads/stores first probe the SM scratchpad (hits are
        // serviced there, bank conflicts serialize); the missing lanes'
        // addresses merge into aligned mem_seg_bytes segments — one global
        // transaction per distinct segment. Atomics bypass the scratchpad
        // and always serialize one transaction per lane. One pass per
        // lane: probe, segment, profiler hook, then the data effect, which
        // applies at issue in lane order so fetch-add sequences within a
        // warp are deterministic.
        const bool atomic = kind == OpKind::kFetchAdd;
        clear_segments();
        usize last_seg = ~usize{0};
        i64 segments = 0;
        u64 smem_hits = 0;
        u32 max_bank = 0;
        for (u64 m = group; m != 0; m &= m - 1) {
          const u32 lane = static_cast<u32>(std::countr_zero(m));
          const u32 tid = w.first + lane;
          Operation& op = threads_[tid]->pending;
          const bool smem_hit =
              !atomic && smem_probe(sm, op.addr, /*fill=*/true);
          if (smem_hit) {
            smem_hits |= u64{1} << lane;
            max_bank = std::max(max_bank, ++bank_load_[bank_of(op.addr)]);
          } else if (!atomic) {
            // Consecutive lanes usually share a segment (coalesced
            // stride), so the newest one is checked before the set.
            const usize seg = segment_of(op.addr);
            if (seg != last_seg) {
              segments += insert_segment(seg);
              last_seg = seg;
            }
          }
          if constexpr (Profiled) {
            prof_hook_->on_access(op.addr,
                                  smem_hit ? AccessClass::kL1Hit
                                  : atomic ? AccessClass::kRmw
                                           : AccessClass::kMemRef,
                                  kind != OpKind::kLoad);
          }
          apply_data_effect(op);
          set_status(tid, ThreadState::Status::kWaitMemory);
        }
        for (u64 m = smem_hits; m != 0; m &= m - 1) {
          const u32 tid = w.first + static_cast<u32>(std::countr_zero(m));
          bank_load_[bank_of(threads_[tid]->pending.addr)] = 0;
        }
        // Atomics never coalesce: one transaction each.
        const i64 transactions = atomic ? lanes : segments;
        const i64 smem_lanes = std::popcount(smem_hits);
        // One base slot, then the serialized extra transactions, then the
        // serialized extra bank passes.
        claim(acct, base_cat, t + 1);
        if (transactions > 1) {
          claim(acct, CycleCat::kCoalesceWait, t + transactions);
        }
        const i64 bank_extra =
            max_bank > 1 ? static_cast<i64>(max_bank) - 1 : 0;
        const Cycle occ = std::max<i64>(transactions, 1) + bank_extra;
        if (bank_extra > 0) {
          claim(acct, CycleCat::kBankConflict, t + occ);
        }
        stats_.instructions += 1;
        sm.issued += occ;
        stats_.memory_ops += lanes;
        if (kind == OpKind::kLoad) stats_.loads += lanes;
        if (kind == OpKind::kStore) stats_.stores += lanes;
        if (atomic) stats_.fetch_adds += lanes;
        stats_.l1_hits += smem_lanes;
        stats_.mem_fills += transactions;
        w.in_flight += static_cast<u32>(lanes);
        // Round trips in flight until the batch completion.
        acct.acct_mem += static_cast<i32>(lanes);
        w.landing[landing_slot(kind)] = group;
        // The whole group lands together: its slowest lane's round trip.
        const Cycle done = t + occ +
                           (transactions > 0 ? config_.memory_latency
                                             : config_.smem_latency);
        events_.push(done, kBatch,
                     (static_cast<u64>(wid) << 4) | static_cast<u64>(kind));
        t += occ;
        break;
      }
      case OpKind::kReadFF:
      case OpKind::kReadFE:
      case OpKind::kWriteEF: {
        // Tag-bit sync maps to global atomics: one serialized transaction
        // per lane (never coalesced). Satisfied lanes ride the round trip;
        // unsatisfied lanes park masked and re-arbitrate when the tag flips.
        claim(acct, base_cat, t + 1);
        if (lanes > 1) {
          claim(acct, CycleCat::kCoalesceWait, t + lanes);
        }
        stats_.instructions += 1;
        sm.issued += lanes;
        stats_.memory_ops += lanes;
        stats_.sync_ops += lanes;
        const Cycle group_end = t + lanes;
        for (u64 m = group; m != 0; m &= m - 1) {
          const u32 tid = w.first + static_cast<u32>(std::countr_zero(m));
          if (try_sync(tid, group_end)) {
            start_sync_flight(tid, group_end);
            ++w.in_flight;
            events_.push(group_end + config_.memory_latency, kComplete, tid);
          }  // else parked and masked until a retry succeeds
        }
        t = group_end;
        break;
      }
      case OpKind::kBarrier: {
        claim(acct, base_cat, t + 1);
        stats_.instructions += 1;
        sm.issued += 1;
        for (u64 m = group; m != 0; m &= m - 1) {
          const u32 tid = w.first + static_cast<u32>(std::countr_zero(m));
          barrier_arrive(tid, t + 1);  // parked until the release
        }
        t += 1;
        break;
      }
      case OpKind::kNone:
      case OpKind::kDone:
        AG_CHECK(false, "invalid operation reached the issue stage");
    }
  }

  sm.clock = t;  // the SM's issue/LSU pipe is occupied for the whole round
  if (!sm.ready_fifo.empty()) {
    events_.push(sm.clock, kIssue, sm_id);
  } else {
    sm.issue_scheduled = false;
  }
}

void GpuMachine::attempt_sync_retry(u32 tid, Cycle now) {
  // Every retry probes the word again, exactly as on the MTA.
  if (try_sync(tid, now)) {
    start_sync_flight(tid, now);
    ++warps_[tid / config_.warp_width].in_flight;
    events_.push(now + config_.memory_latency, kComplete, tid);
  }
}

std::vector<ProfGaugeInfo> GpuMachine::prof_gauge_info() const {
  std::vector<ProfGaugeInfo> info;
  info.reserve(config_.processors + 3);
  for (u32 p = 0; p < config_.processors; ++p) {
    info.push_back({"p" + std::to_string(p) + ".issued", /*cumulative=*/true});
  }
  info.push_back({"warps_ready", /*cumulative=*/false});
  info.push_back({"warps_blocked", /*cumulative=*/false});
  info.push_back({"mem_outstanding", /*cumulative=*/false});
  return info;
}

void GpuMachine::sample_prof_gauges(i64* out) const {
  // Gauge slots follow prof_gauge_info(): config_.processors issued
  // counters, then ready/blocked/outstanding. Before the first region sms_
  // is still empty; pad the per-SM slots so the layout stays aligned (the
  // machine is idle then, so zero is also the true value).
  i64 ready = 0;
  i64 resident = 0;
  i64 outstanding = 0;
  usize i = 0;
  for (u32 p = 0; p < config_.processors; ++p) {
    if (p < sms_.size()) {
      const Sm& sm = sms_[p];
      out[i++] = sm.issued;
      ready += static_cast<i64>(sm.ready_fifo.size());
      resident += sm.resident;
      // acct_mem counts exactly the lanes in kWaitMemory on a global or
      // satisfied-sync round trip (compute occupancy and barrier releases
      // are charged elsewhere), so summing it replaces the per-thread walk.
      outstanding += ledgers_[p].acct_mem;
    } else {
      out[i++] = 0;
    }
  }
  out[i++] = ready;
  out[i++] = resident - ready;  // warps holding a slot but not issuable
  out[i] = outstanding;
}

void GpuMachine::on_finish(u32 tid, Cycle now) {
  retire(tid, now);
  Warp& w = warps_[tid / config_.warp_width];
  --w.live;
  if (w.live == 0 && w.resident) {
    // The whole warp retired: free its residency slot and stream in the
    // next queued warp (block-at-a-time admission, like the MTA's streams).
    w.resident = false;
    Sm& sm = sms_[w.sm];
    --sm.resident;
    if (!sm.admission_queue.empty()) {
      admit_warp(sm.admission_queue.pop(), now);
    }
  } else {
    // This lane's completion may have been the flight the rest of the warp
    // was lockstep-waiting on; the surviving runnable lanes still need an
    // issue slot.
    maybe_enqueue_warp(tid / config_.warp_width, now);
  }
  // A finished lane no longer participates in barriers.
  maybe_release_barrier();
}

}  // namespace archgraph::sim
