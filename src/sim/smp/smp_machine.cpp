#include "sim/smp/smp_machine.hpp"

#include <algorithm>
#include <cmath>

namespace archgraph::sim {

void validate(const SmpConfig& c) {
  AG_CHECK(c.processors >= 1, "SmpConfig.processors must be >= 1 (got " +
                                  std::to_string(c.processors) + ")");
  AG_CHECK(c.processors <= 32,
           "SmpConfig.processors must be <= 32 (sharer bitmask; got " +
               std::to_string(c.processors) + ")");
  AG_CHECK(c.line_bytes >= kWordBytes &&
               (c.line_bytes & (c.line_bytes - 1)) == 0,
           "SmpConfig.line_bytes must be a power of two >= " +
               std::to_string(kWordBytes) + " (got " +
               std::to_string(c.line_bytes) + ")");
  AG_CHECK(c.l1_ways >= 1, "SmpConfig.l1_ways must be >= 1 (got " +
                               std::to_string(c.l1_ways) + ")");
  AG_CHECK(c.l2_ways >= 1, "SmpConfig.l2_ways must be >= 1 (got " +
                               std::to_string(c.l2_ways) + ")");
  // Divided in two steps: line_bytes * ways can overflow a u64.
  AG_CHECK(c.l1_bytes > 0 && c.l1_bytes % c.line_bytes == 0 &&
               c.l1_bytes / c.line_bytes % c.l1_ways == 0,
           "SmpConfig.l1_bytes must be a positive multiple of line_bytes * "
           "l1_ways (got " +
               std::to_string(c.l1_bytes) + ")");
  AG_CHECK(c.l2_bytes > 0 && c.l2_bytes % c.line_bytes == 0 &&
               c.l2_bytes / c.line_bytes % c.l2_ways == 0,
           "SmpConfig.l2_bytes must be a positive multiple of line_bytes * "
           "l2_ways (got " +
               std::to_string(c.l2_bytes) + ")");
  AG_CHECK(c.l1_bytes / c.line_bytes <= Cache::kMaxLines,
           "SmpConfig.l1_bytes holds more lines than a cache tag can name "
           "(at most " +
               std::to_string(Cache::kMaxLines) + "; got " +
               std::to_string(c.l1_bytes / c.line_bytes) + ")");
  AG_CHECK(c.l2_bytes / c.line_bytes <= Cache::kMaxLines,
           "SmpConfig.l2_bytes holds more lines than a cache tag can name "
           "(at most " +
               std::to_string(Cache::kMaxLines) + "; got " +
               std::to_string(c.l2_bytes / c.line_bytes) + ")");
  AG_CHECK(c.l1_latency >= 1, "SmpConfig.l1_latency must be >= 1 (got " +
                                  std::to_string(c.l1_latency) + ")");
  AG_CHECK(c.l2_latency >= 1, "SmpConfig.l2_latency must be >= 1 (got " +
                                  std::to_string(c.l2_latency) + ")");
  AG_CHECK(c.memory_latency >= 1, "SmpConfig.memory_latency must be >= 1 "
                                  "(got " +
                                      std::to_string(c.memory_latency) + ")");
  AG_CHECK(c.bus_occupancy >= 0, "SmpConfig.bus_occupancy must be >= 0 (got " +
                                     std::to_string(c.bus_occupancy) + ")");
  AG_CHECK(c.store_miss_cost >= 0,
           "SmpConfig.store_miss_cost must be >= 0 (got " +
               std::to_string(c.store_miss_cost) + ")");
  AG_CHECK(c.rmw_cost >= 0, "SmpConfig.rmw_cost must be >= 0 (got " +
                                std::to_string(c.rmw_cost) + ")");
  AG_CHECK(c.coherence_penalty >= 0,
           "SmpConfig.coherence_penalty must be >= 0 (got " +
               std::to_string(c.coherence_penalty) + ")");
  AG_CHECK(c.barrier_base >= 0, "SmpConfig.barrier_base must be >= 0 (got " +
                                    std::to_string(c.barrier_base) + ")");
  AG_CHECK(c.barrier_per_proc >= 0,
           "SmpConfig.barrier_per_proc must be >= 0 (got " +
               std::to_string(c.barrier_per_proc) + ")");
  AG_CHECK(c.context_switch >= 0,
           "SmpConfig.context_switch must be >= 0 (got " +
               std::to_string(c.context_switch) + ")");
  AG_CHECK(c.quantum >= 1, "SmpConfig.quantum must be >= 1 (got " +
                               std::to_string(c.quantum) + ")");
  AG_CHECK(c.region_fork_cycles >= 0,
           "SmpConfig.region_fork_cycles must be >= 0 (got " +
               std::to_string(c.region_fork_cycles) + ")");
  AG_CHECK(std::isfinite(c.clock_hz) && c.clock_hz > 0,
           "SmpConfig.clock_hz must be positive and finite (got " +
               std::to_string(c.clock_hz) + ")");
}

SmpMachine::SmpMachine(SmpConfig config)
    // A sync-parked thread means the processor is (logically) spinning on
    // the emulated tag word; a barrier-parked thread means it is waiting out
    // the software barrier; otherwise it simply has no work. Memory ops hold
    // the processor for their whole latency, so no round trip is ever in
    // flight across a gap and the first entry is never selected.
    : Machine({.stall = {CycleCat::kIdle, CycleCat::kRmwSpin,
                         CycleCat::kBarrierWait, CycleCat::kIdle},
               .barrier_latency = config.barrier_base +
                                  config.barrier_per_proc * config.processors,
               .wake_event = kWake}),
      config_(config) {
  validate(config_);
  // One line size keeps coherence single-granularity (DESIGN.md §6).
  procs_.reserve(config_.processors);
  for (u32 i = 0; i < config_.processors; ++i) {
    procs_.emplace_back(
        Cache(config_.l1_bytes, config_.line_bytes, config_.l1_ways),
        Cache(config_.l2_bytes, config_.line_bytes, config_.l2_ways));
  }
  slots_.assign(std::max<usize>(2, (config_.processors + 1) & ~1u),
                kEmptySlot);
}

void SmpMachine::open_region() {
  // Caches and the directory stay warm across regions (phases of one
  // algorithm see each other's cached data); per-region clocks restart.
  // Simulated memory grows only between regions (host-side allocation), so
  // growing the directory here covers every line a region can touch.
  const u64 lines = (static_cast<u64>(memory_.size_words()) * kWordBytes +
                     config_.line_bytes - 1) /
                    config_.line_bytes;
  AG_CHECK(lines <= Cache::kMaxLines,
           "SMP cache tags hold line indices below " +
               std::to_string(Cache::kMaxLines) + "; simulated memory spans " +
               std::to_string(lines) + " lines");
  if (directory_.size() < lines) {
    directory_.resize(lines, 0);
  }
  // Flat ring arena: one power-of-two ready window per processor. Threads
  // map round-robin, so each ring holds at most the processor's thread
  // share (a thread is either running or queued, never both). Grow-only,
  // so repeated regions reuse the arena.
  const u32 cap = ring_capacity_for(
      (threads_.size() + config_.processors - 1) / config_.processors);
  const usize arena_need = static_cast<usize>(cap) * config_.processors;
  if (ring_arena_.size() < arena_need) {
    ring_arena_.resize(arena_need);
  }
  for (u32 p = 0; p < config_.processors; ++p) {
    procs_[p].ready_fifo.bind(
        ring_arena_.data() + static_cast<usize>(p) * cap, cap);
  }
  for (auto& proc : procs_) {
    proc.running = kNone;
    proc.last_ran = kNone;
    proc.oversubscribed = false;
    proc.clock = 0;
    proc.quantum_used = 0;
  }
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  bus_free_ = 0;

  std::vector<u32> assigned(config_.processors, 0);
  for (u32 tid = 0; tid < threads_.size(); ++tid) {
    ThreadState* ts = threads_[tid];
    ts->processor = tid % config_.processors;
    ++assigned[ts->processor];
    advance_thread(*ts);
    if (ts->pending.kind == OpKind::kDone) {
      on_finish(tid, config_.region_fork_cycles);
    } else {
      enqueue_ready(tid, config_.region_fork_cycles);
    }
  }
  for (u32 i = 0; i < config_.processors; ++i) {
    procs_[i].oversubscribed = assigned[i] > 1;
  }
}

void SmpMachine::run_events() {
  if (prof_hook_ != nullptr) {
    run_slots<true>();
  } else {
    run_slots<false>();
  }
}

template <bool Profiled>
void SmpMachine::run_slots() {
  for (;;) {
    const SlotKey next = earliest_slot();
    const Cycle time = slot_time(next);
    const u64 seq = slot_seq(next);
    if (events_.pending_before(time, seq)) {
      const Event e = events_.pop();  // a kWake, the only queued kind
      if constexpr (Profiled) {
        prof_hook_->on_advance(*this, e.time);
      }
      enqueue_ready(static_cast<u32>(e.payload), e.time);
      continue;
    }
    if (next == kEmptySlot) {
      return;  // every slot is empty and nothing is queued
    }
    events_.take_external(time, seq);
    if constexpr (Profiled) {
      prof_hook_->on_advance(*this, time);
    }
    const u32 p = slot_proc(next);
    const Cycle at = handle_dispatch(p, time);
    // Drawn after any wakes the op queued, so at an equal time they come
    // first (DESIGN.md §Event scheduling, *Dispatch slots*).
    slots_[p] = at >= 0 ? slot_key(at, events_.draw_seq(), p) : kEmptySlot;
  }
}

void SmpMachine::enqueue_ready(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  Ledger& acct = ledgers_[ts->processor];
  // A wake ends the thread's park episode: classify the gap up to `now`
  // under the old counters, then release them.
  if (status_of(tid) == ThreadState::Status::kWaitSync) {
    settle(acct, now);
    --acct.acct_sync;
  } else if (status_of(tid) == ThreadState::Status::kWaitBarrier) {
    settle(acct, now);
    --acct.acct_barrier;
  }
  set_status(tid, ThreadState::Status::kRunnable);
  Processor& proc = procs_[ts->processor];
  proc.ready_fifo.push(tid);
  SlotKey& slot = slots_[ts->processor];
  if (slot == kEmptySlot) {
    slot = slot_key(std::max(now, proc.clock), events_.draw_seq(),
                    ts->processor);
  }
}

Cycle SmpMachine::handle_dispatch(u32 proc_id, Cycle now) {
  Processor& proc = procs_[proc_id];
  if (proc.running == kNone) {
    if (proc.ready_fifo.empty()) {
      return -1;
    }
    proc.running = proc.ready_fifo.pop();
    if (proc.oversubscribed && proc.last_ran != kNone &&
        proc.last_ran != proc.running) {
      settle(ledgers_[proc_id], std::max(proc.clock, now));
      proc.clock = std::max(proc.clock, now) + config_.context_switch;
      // Context-switch cycles are scheduler overhead, not kernel work: idle.
      // Claim only the still-unaccounted part (a wake on this processor may
      // already have settled past the switch window).
      claim(ledgers_[proc_id], CycleCat::kIdle, proc.clock);
      ++stats_.context_switches;
    }
    proc.last_ran = proc.running;
    proc.quantum_used = 0;
  }

  const u32 tid = proc.running;
  ThreadState* ts = threads_[tid];
  const Cycle start = std::max(now, proc.clock);
  const Cycle completion = execute_op(tid, start);

  if (completion < 0) {
    // Thread blocked (sync wait or barrier). execute_op advanced proc.clock
    // past the failed probe; the processor moves on.
    proc.running = kNone;
    return proc.ready_fifo.empty() ? -1 : proc.clock;
  }

  proc.clock = completion;
  proc.quantum_used += completion - start;
  advance_thread(*ts);

  if (ts->pending.kind == OpKind::kDone) {
    on_finish(tid, completion);
    proc.running = kNone;
    return proc.ready_fifo.empty() ? -1 : completion;
  }

  if (proc.quantum_used >= config_.quantum && !proc.ready_fifo.empty()) {
    proc.ready_fifo.push(tid);
    proc.running = kNone;
  }
  return completion;
}

Cycle SmpMachine::bus_transaction(Cycle request, Cycle occupancy) {
  const Cycle start = std::max(request, bus_free_);
  bus_free_ = start + occupancy;
  stats_.bus_busy += occupancy;
  return start;
}

void SmpMachine::invalidate_remote(u64 line, u32 writer) {
  u32& mask = sharers(line);
  for (u32 j = 0; j < config_.processors; ++j) {
    if (j == writer || (mask & (u32{1} << j)) == 0) {
      continue;
    }
    bool dirty = procs_[j].l1.invalidate(line);
    dirty = procs_[j].l2.invalidate(line) || dirty;
    ++stats_.invalidations;
    if (dirty) {
      ++stats_.interventions;
    }
  }
  mask = u32{1} << writer;
}

Cycle SmpMachine::data_access_cost(Processor& proc, u32 proc_id,
                                   const Operation& op, Cycle start,
                                   AccessSplit& split) {
  const u64 line = proc.l1.line_of(op.addr);
  const bool write = op.kind == OpKind::kStore;
  const u32 my_bit = u32{1} << proc_id;

  // Reads never pay the directory lookup — only a write can need remote
  // invalidation, and loads dominate the kernels' access mix.
  auto coherence = [&]() -> Cycle {
    if (!write) return 0;
    if ((sharers(line) & ~my_bit) != 0) {
      invalidate_remote(line, proc_id);
      return config_.coherence_penalty;
    }
    return 0;
  };

  const Cache::AccessResult l1 = proc.l1.access(line, write);
  if (l1.hit) {
    ++stats_.l1_hits;
    if (prof_hook_ != nullptr) {
      prof_hook_->on_access(op.addr, AccessClass::kL1Hit, write);
    }
    // An L1 hit is the pipeline's native access path: all issued, plus any
    // coherence stall on the bus.
    split.bus = coherence();
    return config_.l1_latency + split.bus;
  }
  // L1 victim writes back into L2 (on-module, no bus).
  if (l1.evicted && l1.evicted_dirty) {
    const Cache::AccessResult spill = proc.l2.access(l1.evicted_line, true);
    if (spill.evicted && spill.evicted_dirty) {
      bus_transaction(start, config_.bus_occupancy);
      ++stats_.writebacks;
    }
  }

  const Cache::AccessResult l2 = proc.l2.access(line, write);
  if (l2.hit) {
    ++stats_.l2_hits;
    if (prof_hook_ != nullptr) {
      prof_hook_->on_access(op.addr, AccessClass::kL2Hit, write);
    }
    // One issue slot; the rest of the external-cache latency is the L1-miss
    // stall the paper's in-order core cannot hide.
    split.l1_miss = config_.l2_latency - 1;
    split.bus = coherence();
    return config_.l2_latency + split.bus;
  }
  if (l2.evicted && l2.evicted_dirty) {
    bus_transaction(start + config_.l2_latency, config_.bus_occupancy);
    ++stats_.writebacks;
  }

  // Fill from main memory over the shared bus.
  ++stats_.mem_fills;
  if (prof_hook_ != nullptr) {
    prof_hook_->on_access(op.addr, AccessClass::kMemFill, write);
  }
  const Cycle bus_start =
      bus_transaction(start + config_.l2_latency, config_.bus_occupancy);
  sharers(line) |= my_bit;
  if (write) {
    // Store-buffer semantics: the CPU retires the store without waiting for
    // the line; bandwidth and coherence were charged above/below. At most
    // one slot of the visible cost is an issue slot; the rest is the store
    // buffer draining toward memory.
    split.bus = coherence();
    split.mem_fill =
        config_.store_miss_cost - std::min<Cycle>(1, config_.store_miss_cost);
    return config_.store_miss_cost + split.bus;
  }
  // Load fill: one issue slot, the cache walk (L2 latency), any wait for the
  // shared bus, then the full unloaded memory latency.
  const Cycle coh = coherence();
  split.l2_miss = config_.l2_latency - 1;
  split.bus = (bus_start - (start + config_.l2_latency)) + coh;
  split.mem_fill = config_.memory_latency;
  return (bus_start - start) + config_.memory_latency + coh;
}

Cycle SmpMachine::execute_op(u32 tid, Cycle start) {
  ThreadState* ts = threads_[tid];
  Processor& proc = procs_[ts->processor];
  Ledger& acct = ledgers_[ts->processor];
  Operation& op = ts->pending;
  // Classify any idle gap before this op begins; the op's own cycles are
  // attributed below, case by case, so that each decomposition sums exactly
  // to the op's cost (the run_region() invariant depends on it).
  settle(acct, start);

  switch (op.kind) {
    case OpKind::kCompute: {
      const i64 slots = std::max<i64>(op.value, 1);
      stats_.instructions += slots;
      stats_.breakdown[CycleCat::kIssued] += slots;
      acct.acct_until = start + slots;
      return start + slots;
    }
    case OpKind::kLoad:
    case OpKind::kStore: {
      stats_.instructions += 1;
      stats_.memory_ops += 1;
      if (op.kind == OpKind::kLoad) ++stats_.loads;
      if (op.kind == OpKind::kStore) ++stats_.stores;
      AccessSplit split;
      const Cycle cost =
          data_access_cost(proc, ts->processor, op, start, split);
      stats_.breakdown[CycleCat::kL1MissWait] += split.l1_miss;
      stats_.breakdown[CycleCat::kL2MissWait] += split.l2_miss;
      stats_.breakdown[CycleCat::kMemFillWait] += split.mem_fill;
      stats_.breakdown[CycleCat::kBusContention] += split.bus;
      stats_.breakdown[CycleCat::kIssued] +=
          cost - (split.l1_miss + split.l2_miss + split.mem_fill + split.bus);
      acct.acct_until = start + cost;
      apply_data_effect(op);
      return start + cost;
    }
    case OpKind::kFetchAdd: {
      stats_.instructions += 1;
      stats_.memory_ops += 1;
      stats_.fetch_adds += 1;
      if (prof_hook_ != nullptr) {
        prof_hook_->on_access(op.addr, AccessClass::kRmw, true);
      }
      // Locked bus RMW bypassing the caches; every cached copy is stale.
      const u64 line = proc.l1.line_of(op.addr);
      for (u32 j = 0; j < config_.processors; ++j) {
        procs_[j].l1.invalidate(line);
        procs_[j].l2.invalidate(line);
      }
      sharers(line) = 0;
      const Cycle bus_start = bus_transaction(start, config_.bus_occupancy);
      // Queueing for the locked bus is contention; the RMW itself is one
      // issue slot plus the lock-held spin the core cannot overlap.
      const Cycle issued = std::min<Cycle>(1, config_.rmw_cost);
      stats_.breakdown[CycleCat::kBusContention] += bus_start - start;
      stats_.breakdown[CycleCat::kIssued] += issued;
      stats_.breakdown[CycleCat::kRmwSpin] += config_.rmw_cost - issued;
      acct.acct_until = bus_start + config_.rmw_cost;
      apply_data_effect(op);
      return bus_start + config_.rmw_cost;
    }
    case OpKind::kReadFF:
    case OpKind::kReadFE:
    case OpKind::kWriteEF: {
      // Emulated with a locked probe of the tag word (the paper's point:
      // SMPs have no hardware full/empty support, so this is expensive).
      stats_.instructions += 1;
      stats_.memory_ops += 1;
      stats_.sync_ops += 1;
      const Cycle bus_start = bus_transaction(start, config_.bus_occupancy);
      const Cycle probe_end = bus_start + config_.rmw_cost;
      // The probe costs the same whether it succeeds or parks: bus queueing,
      // one issue slot, and the locked-RMW spin.
      const Cycle probe_issued = std::min<Cycle>(1, config_.rmw_cost);
      stats_.breakdown[CycleCat::kBusContention] += bus_start - start;
      stats_.breakdown[CycleCat::kIssued] += probe_issued;
      stats_.breakdown[CycleCat::kRmwSpin] += config_.rmw_cost - probe_issued;
      acct.acct_until = probe_end;
      if (try_sync(tid, probe_end)) {
        return probe_end;
      }
      // Parked: idle until the wake now reads as rmw_spin.
      proc.clock = probe_end;  // the failed probe still held the processor
      return -1;
    }
    case OpKind::kBarrier: {
      stats_.instructions += 1;
      // Arrival = one ticket RMW on the barrier counter.
      const Cycle bus_start = bus_transaction(start, config_.bus_occupancy);
      const Cycle arrival = bus_start + config_.rmw_cost;
      const Cycle issued = std::min<Cycle>(1, config_.rmw_cost);
      stats_.breakdown[CycleCat::kBusContention] += bus_start - start;
      stats_.breakdown[CycleCat::kIssued] += issued;
      stats_.breakdown[CycleCat::kBarrierWait] += config_.rmw_cost - issued;
      acct.acct_until = arrival;
      proc.clock = arrival;
      barrier_arrive(tid, arrival);  // idle until release reads barrier_wait
      return -1;
    }
    case OpKind::kNone:
    case OpKind::kDone:
      AG_CHECK(false, "invalid operation reached execute_op()");
  }
  return -1;  // unreachable
}

void SmpMachine::resume_barrier(Cycle release) {
  for (const auto& [tid, arrival] : release_buf_) {
    ThreadState* ts = threads_[tid];
    procs_[ts->processor].barrier_wait += release - arrival;
    ts->pending.result = 0;
    advance_thread(*ts);  // step past the barrier; next op runs at dispatch
    if (ts->pending.kind == OpKind::kDone) {
      // Finishing at the release skips enqueue_ready(), so release the park
      // counter here (the ledger is already settled to the release) and the
      // processor's later gaps read as plain idle.
      --ledgers_[ts->processor].acct_barrier;
      on_finish(tid, release);
    } else {
      events_.push(release, kWake, tid);
    }
  }
  release_buf_.clear();
}

std::vector<ProfGaugeInfo> SmpMachine::prof_gauge_info() const {
  std::vector<ProfGaugeInfo> info;
  info.reserve(config_.processors + 1);
  for (u32 p = 0; p < config_.processors; ++p) {
    info.push_back(
        {"p" + std::to_string(p) + ".barrier_wait", /*cumulative=*/true});
  }
  info.push_back({"barrier_parked", /*cumulative=*/false});
  return info;
}

void SmpMachine::sample_prof_gauges(i64* out) const {
  usize i = 0;
  for (const Processor& proc : procs_) {
    out[i++] = proc.barrier_wait;
  }
  out[i] = static_cast<i64>(barrier_parked());
}

void SmpMachine::on_finish(u32 tid, Cycle now) {
  retire(tid, now);
  maybe_release_barrier();
}

}  // namespace archgraph::sim
