#include "sim/mta/mta_machine.hpp"

#include <algorithm>

#include "common/prng.hpp"

namespace archgraph::sim {

void validate(const MtaConfig& c) {
  AG_CHECK(c.processors >= 1, "MtaConfig.processors must be >= 1 (got " +
                                  std::to_string(c.processors) + ")");
  AG_CHECK(c.streams_per_processor >= 1,
           "MtaConfig.streams_per_processor must be >= 1 (got " +
               std::to_string(c.streams_per_processor) + ")");
  AG_CHECK(c.memory_latency >= 2,
           "MtaConfig.memory_latency must cover the round trip (>= 2, got " +
               std::to_string(c.memory_latency) + ")");
  AG_CHECK(c.banks_per_processor >= 1,
           "MtaConfig.banks_per_processor must be >= 1 (got " +
               std::to_string(c.banks_per_processor) + ")");
  AG_CHECK(c.region_fork_cycles >= 0,
           "MtaConfig.region_fork_cycles must be >= 0 (got " +
               std::to_string(c.region_fork_cycles) + ")");
  AG_CHECK(c.barrier_overhead >= 0,
           "MtaConfig.barrier_overhead must be >= 0 (got " +
               std::to_string(c.barrier_overhead) + ")");
  AG_CHECK(c.nonuniform_extra >= 0,
           "MtaConfig.nonuniform_extra must be >= 0 (got " +
               std::to_string(c.nonuniform_extra) + ")");
  AG_CHECK(c.clock_hz > 0, "MtaConfig.clock_hz must be positive (got " +
                               std::to_string(c.clock_hz) + ")");
}

MtaMachine::MtaMachine(MtaConfig config) : config_(config) {
  validate(config_);
  net_half_ = config_.memory_latency / 2;
}

void MtaMachine::settle(Processor& proc, Cycle t) {
  if (t <= proc.acct_until) {
    return;  // already attributed (or a past-time event) — nothing to add
  }
  // Priority order mirrors the paper's latency-tolerance story: if any
  // stream has a memory round trip in flight the processor is covering
  // latency it failed to hide (no_ready_stream); otherwise parked sync
  // waiters, then barrier waiters, explain the silence; with no stream
  // holding work at all the slot is idle (fork ramp, admission, drain, or
  // an unused processor).
  CycleCat cat = CycleCat::kIdleNoThread;
  if (proc.acct_mem > 0) {
    cat = CycleCat::kNoReadyStream;
  } else if (proc.acct_sync > 0) {
    cat = CycleCat::kSyncBlocked;
  } else if (proc.acct_barrier > 0) {
    cat = CycleCat::kBarrier;
  }
  stats_.breakdown[cat] += t - proc.acct_until;
  proc.acct_until = t;
}

void MtaMachine::acct_issue(Processor& proc) {
  if (proc.clock > proc.acct_until) {
    stats_.breakdown[CycleCat::kIssued] += proc.clock - proc.acct_until;
    proc.acct_until = proc.clock;
  }
}

void MtaMachine::acct_complete(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  Processor& proc = procs_[ts->processor];
  settle(proc, now);
  switch (ts->pending.kind) {
    case OpKind::kLoad:
    case OpKind::kStore:
    case OpKind::kFetchAdd:
    case OpKind::kReadFF:
    case OpKind::kReadFE:
    case OpKind::kWriteEF:
      --proc.acct_mem;  // the round trip (or satisfied sync flight) landed
      break;
    case OpKind::kBarrier:
      --proc.acct_barrier;  // the release reached this stream
      break;
    default:
      break;  // compute occupancy: the slots were attributed at issue
  }
}

usize MtaMachine::bank_of(Addr addr) const {
  const usize banks = bank_free_.size();
  const u64 key = config_.hash_addresses ? hash64(addr) : addr;
  // Banks are procs x banks_per_processor; when that product is a power of
  // two (every stock preset) the modulo is a mask — the hot path runs one
  // integer divide per memory op otherwise.
  if ((banks & (banks - 1)) == 0) {
    return static_cast<usize>(key & (banks - 1));
  }
  return static_cast<usize>(key % banks);
}

Cycle MtaMachine::simulate(std::vector<ThreadState*>& threads) {
  // --- reset region state -------------------------------------------------
  threads_ = threads;
  procs_.assign(config_.processors, Processor{});
  // Flat ring arena: each processor gets two power-of-two windows (ready,
  // admission). Round-robin admission bounds both queues by the processor's
  // thread share, and a thread is enqueued at most once at a time, so the
  // windows never overflow. Growth (never shrink) keeps the arena warm
  // across a sweep's repeated regions — zero steady-state allocation.
  const u32 cap = ring_capacity_for(
      (threads_.size() + config_.processors - 1) / config_.processors);
  const usize arena_need = static_cast<usize>(cap) * 2 * config_.processors;
  if (ring_arena_.size() < arena_need) {
    ring_arena_.resize(arena_need);
  }
  for (u32 p = 0; p < config_.processors; ++p) {
    u32* base = ring_arena_.data() + static_cast<usize>(p) * 2 * cap;
    procs_[p].ready_fifo.bind(base, cap);
    procs_[p].admission_queue.bind(base + cap, cap);
  }
  bank_free_.assign(
      static_cast<usize>(config_.banks_per_processor) * config_.processors, 0);
  sync_waiters_.clear();
  barrier_waiting_.clear();
  release_buf_.clear();
  barrier_max_arrival_ = 0;
  live_ = static_cast<i64>(threads_.size());
  region_end_ = 0;
  events_.start_region();

  // --- admission: map threads to processors round-robin; threams beyond the
  // stream count per processor wait for a slot (the MTA runtime maps threads
  // to streams as they free up).
  for (u32 tid = 0; tid < threads_.size(); ++tid) {
    ThreadState* ts = threads_[tid];
    ts->processor = tid % config_.processors;
    Processor& proc = procs_[ts->processor];
    if (proc.streams_in_use < config_.streams_per_processor) {
      ++proc.streams_in_use;
      advance_thread(*ts);
      post_advance(tid, config_.region_fork_cycles);
    } else {
      proc.admission_queue.push(tid);
    }
  }

  // --- main event loop ----------------------------------------------------
  if (prof_hook_ != nullptr) {
    run_events<true>();
  } else {
    run_events<false>();
  }

  AG_CHECK(live_ == 0,
           "MTA simulation deadlocked: threads wait on full/empty tags or a "
           "barrier that can never be satisfied");
  // Close the accounting: attribute every processor's tail gap up to the
  // region end, so per-processor attribution totals exactly region_end_ and
  // the region's breakdown delta sums to processors x cycles.
  for (Processor& proc : procs_) {
    if (proc.acct_until > region_end_) {
      // Only reachable with barrier_overhead == 0: the last arrival's issue
      // slot extends one cycle past the release that ended the region. Clip
      // the overrun so attribution matches the region span exactly.
      stats_.breakdown[CycleCat::kIssued] -= proc.acct_until - region_end_;
      proc.acct_until = region_end_;
    }
    settle(proc, region_end_);
  }
  // threads_ holds raw pointers into the caller's region-local vector, which
  // dies when run_region() returns; drop them so hooks sampling between
  // regions (the next region's on_prof_region_begin) never dereference freed
  // ThreadStates. procs_ stays: on_prof_region_end still reads the issued
  // gauges, and the next simulate() reassigns it.
  threads_.clear();
  return region_end_;
}

template <bool Profiled>
void MtaMachine::run_events() {
  while (!events_.empty()) {
    const Event e = events_.pop();
    if constexpr (Profiled) {
      prof_hook_->on_advance(*this, e.time);
    }
    switch (static_cast<EventKind>(e.kind)) {
      case kReady:
        on_ready(static_cast<u32>(e.payload), e.time);
        break;
      case kIssue:
        handle_issue(static_cast<u32>(e.payload), e.time);
        break;
      case kComplete: {
        const auto tid = static_cast<u32>(e.payload);
        acct_complete(tid, e.time);
        advance_thread(*threads_[tid]);
        post_advance(tid, e.time);
        break;
      }
      case kRetry:
        attempt_sync(static_cast<u32>(e.payload), e.time,
                     /*first_attempt=*/false);
        break;
      case kRelease:
        // A barrier-release storm batched into one event: resume every
        // parked stream in arrival order. The per-thread kComplete events
        // this replaces were pushed back-to-back (consecutive seqs at one
        // time), so nothing could ever pop between them — processing the
        // whole storm in one handler is pop-order-identical.
        for (usize i = 0; i < release_buf_.size(); ++i) {
          const u32 tid = release_buf_[i];
          acct_complete(tid, e.time);
          advance_thread(*threads_[tid]);
          post_advance(tid, e.time);
        }
        release_buf_.clear();
        break;
    }
  }
}

void MtaMachine::post_advance(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  if (ts->pending.kind == OpKind::kDone) {
    on_finish(tid, now);
  } else {
    set_status(tid, ThreadState::Status::kRunnable);
    events_.push(now, kReady, tid);
  }
}

void MtaMachine::on_ready(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  Processor& proc = procs_[ts->processor];
  proc.ready_fifo.push(tid);
  if (!proc.issue_scheduled) {
    proc.issue_scheduled = true;
    events_.push(std::max(now, proc.clock), kIssue, ts->processor);
  }
}

void MtaMachine::handle_issue(u32 proc_id, Cycle now) {
  Processor& proc = procs_[proc_id];
  if (proc.ready_fifo.empty()) {
    proc.issue_scheduled = false;
    return;
  }
  const u32 tid = proc.ready_fifo.pop();
  ThreadState* ts = threads_[tid];
  Operation& op = ts->pending;

  // Cycle accounting: classify the silent gap up to this issue, then claim
  // the issue slot(s) — [now, proc.clock) is attributed as issued below.
  settle(proc, now);

  switch (op.kind) {
    case OpKind::kCompute: {
      const i64 slots = std::max<i64>(op.value, 1);
      proc.clock = now + slots;
      stats_.instructions += slots;
      proc.issued += slots;
      ts->instructions += slots;
      acct_issue(proc);
      set_status(tid, ThreadState::Status::kWaitMemory);  // held until t+slots
      events_.push(proc.clock, kComplete, tid);
      break;
    }
    case OpKind::kLoad:
    case OpKind::kStore:
    case OpKind::kFetchAdd: {
      proc.clock = now + 1;
      stats_.instructions += 1;
      stats_.memory_ops += 1;
      proc.issued += 1;
      ts->instructions += 1;
      ts->memory_ops += 1;
      acct_issue(proc);
      ++proc.acct_mem;  // round trip in flight until kComplete
      if (op.kind == OpKind::kLoad) ++stats_.loads;
      if (op.kind == OpKind::kStore) ++stats_.stores;
      if (op.kind == OpKind::kFetchAdd) ++stats_.fetch_adds;
      set_status(tid, ThreadState::Status::kWaitMemory);
      events_.push(service_memory(op, now, ts->processor), kComplete, tid);
      break;
    }
    case OpKind::kReadFF:
    case OpKind::kReadFE:
    case OpKind::kWriteEF: {
      proc.clock = now + 1;
      stats_.instructions += 1;
      stats_.memory_ops += 1;
      stats_.sync_ops += 1;
      proc.issued += 1;
      ts->instructions += 1;
      ts->memory_ops += 1;
      acct_issue(proc);
      set_status(tid, ThreadState::Status::kWaitMemory);
      attempt_sync(tid, now + 1 + net_half_, /*first_attempt=*/true);
      break;
    }
    case OpKind::kBarrier: {
      proc.clock = now + 1;
      stats_.instructions += 1;
      proc.issued += 1;
      ts->instructions += 1;
      acct_issue(proc);
      ++proc.acct_barrier;  // parked until the release kComplete
      barrier_arrive(tid, now);
      break;
    }
    case OpKind::kNone:
    case OpKind::kDone:
      AG_CHECK(false, "invalid operation reached the issue stage");
  }

  if (!proc.ready_fifo.empty()) {
    events_.push(proc.clock, kIssue, proc_id);
  } else {
    proc.issue_scheduled = false;
  }
}

Cycle MtaMachine::numa_penalty(usize bank, u32 proc) const {
  if (config_.nonuniform_extra == 0) {
    return 0;
  }
  const u32 owner =
      static_cast<u32>(bank / config_.banks_per_processor);
  return owner == proc ? 0 : config_.nonuniform_extra / 2;  // per direction
}

Cycle MtaMachine::service_memory(Operation& op, Cycle issue_time, u32 proc) {
  if (prof_hook_ != nullptr) {
    prof_hook_->on_access(op.addr,
                          op.kind == OpKind::kFetchAdd ? AccessClass::kRmw
                                                       : AccessClass::kMemRef,
                          op.kind != OpKind::kLoad);
  }
  const usize bank = bank_of(op.addr);
  const Cycle extra = numa_penalty(bank, proc);
  const Cycle arrival = issue_time + 1 + net_half_ + extra;
  const Cycle start = std::max(arrival, bank_free_[bank]);
  bank_free_[bank] = start + 1;
  // Data effect applied at service (event order == issue order, so
  // fetch-add sequences are deterministic).
  switch (op.kind) {
    case OpKind::kLoad:
      op.result = memory_.read(op.addr);
      break;
    case OpKind::kStore:
      memory_.write(op.addr, op.value);
      memory_.set_full(op.addr, true);
      break;
    case OpKind::kFetchAdd: {
      const i64 old = memory_.read(op.addr);
      memory_.write(op.addr, old + op.value);
      op.result = old;
      break;
    }
    default:
      AG_CHECK(false, "service_memory() on a non-memory op");
  }
  return start + 1 + net_half_ + extra;
}

void MtaMachine::attempt_sync(u32 tid, Cycle arrival, bool first_attempt) {
  ThreadState* ts = threads_[tid];
  Operation& op = ts->pending;
  if (prof_hook_ != nullptr) {
    // Every probe (first attempt and each retry) consumes a bank cycle, so
    // each one counts as an access — retry traffic shows up in the heatmap.
    prof_hook_->on_access(op.addr, AccessClass::kRmw,
                          op.kind == OpKind::kWriteEF);
  }
  const usize bank = bank_of(op.addr);
  const Cycle extra = numa_penalty(bank, ts->processor);
  const Cycle start = std::max(arrival + extra, bank_free_[bank]);
  bank_free_[bank] = start + 1;

  const bool full = memory_.full(op.addr);
  bool satisfied = false;
  switch (op.kind) {
    case OpKind::kReadFF:
      if (full) {
        op.result = memory_.read(op.addr);
        satisfied = true;
      }
      break;
    case OpKind::kReadFE:
      if (full) {
        op.result = memory_.read(op.addr);
        memory_.set_full(op.addr, false);
        satisfied = true;
      }
      break;
    case OpKind::kWriteEF:
      if (!full) {
        memory_.write(op.addr, op.value);
        memory_.set_full(op.addr, true);
        satisfied = true;
      }
      break;
    default:
      AG_CHECK(false, "attempt_sync() on a non-sync op");
  }

  // Cycle accounting. A sync op's flight (issue -> satisfied probe ->
  // completion) counts as memory in flight; a parked op counts as a sync
  // block. The first attempt's counters were not yet set (the issue path
  // settled at issue time); a successful retry converts sync -> mem at the
  // wake time, classifying the parked gap before it moves on.
  Processor& proc = procs_[ts->processor];
  if (first_attempt) {
    if (satisfied) {
      ++proc.acct_mem;
    } else {
      ++proc.acct_sync;
    }
  } else if (satisfied) {
    settle(proc, arrival);
    --proc.acct_sync;
    ++proc.acct_mem;
  }

  if (satisfied) {
    // A tag flip may unblock waiters of the opposite polarity.
    if (op.kind != OpKind::kReadFF) {
      wake_waiters(op.addr, start + 1);
    }
    set_status(tid, ThreadState::Status::kWaitMemory);
    events_.push(start + 1 + net_half_ + extra, kComplete, tid);
  } else {
    set_status(tid, ThreadState::Status::kWaitSync);
    sync_waiters_[op.addr].push_back(tid);
  }
}

void MtaMachine::wake_waiters(Addr addr, Cycle now) {
  const auto it = sync_waiters_.find(addr);
  if (it == sync_waiters_.end() || it->second.empty()) {
    return;
  }
  // Re-arbitrate every waiter in FIFO order; each recheck consumes a bank
  // cycle in attempt_sync — the retry traffic that makes hotspots hurt.
  std::deque<u32> woken = std::move(it->second);
  sync_waiters_.erase(it);
  for (const u32 tid : woken) {
    stats_.sync_retries += 1;
    events_.push(now, kRetry, tid);
  }
}

void MtaMachine::barrier_arrive(u32 tid, Cycle now) {
  set_status(tid, ThreadState::Status::kWaitBarrier);
  barrier_waiting_.push_back(tid);
  barrier_max_arrival_ = std::max(barrier_max_arrival_, now);
  maybe_release_barrier();
}

void MtaMachine::maybe_release_barrier() {
  if (static_cast<i64>(barrier_waiting_.size()) != live_ || live_ == 0) {
    return;
  }
  const Cycle release = barrier_max_arrival_ + config_.barrier_overhead;
  // Every live stream is parked here, so at most one release is ever in
  // flight: resume the whole episode with a single kRelease event instead of
  // one queue entry per stream. run_events() replays release_buf_ in arrival
  // order, which is exactly the order the per-stream events popped in.
  AG_DCHECK(release_buf_.empty(), "overlapping barrier releases");
  for (const u32 tid : barrier_waiting_) {
    threads_[tid]->pending.result = 0;
    set_status(tid, ThreadState::Status::kWaitMemory);
  }
  release_buf_.swap(barrier_waiting_);  // leaves barrier_waiting_ empty
  events_.push(release, kRelease, 0);
  barrier_max_arrival_ = 0;
  stats_.barriers += 1;
  // Settle the accounting up to the release before observers snapshot
  // stats(): every live stream is parked here (nothing is in flight), so the
  // per-phase breakdown deltas slice exactly at barrier boundaries. The
  // release kComplete events settle no-op and drop the barrier counters.
  for (Processor& proc : procs_) {
    settle(proc, release);
  }
  notify_barrier_release(release);
}

std::vector<ProfGaugeInfo> MtaMachine::prof_gauge_info() const {
  std::vector<ProfGaugeInfo> info;
  info.reserve(config_.processors + 3);
  for (u32 p = 0; p < config_.processors; ++p) {
    info.push_back({"p" + std::to_string(p) + ".issued", /*cumulative=*/true});
  }
  info.push_back({"streams_ready", /*cumulative=*/false});
  info.push_back({"streams_blocked", /*cumulative=*/false});
  info.push_back({"mem_outstanding", /*cumulative=*/false});
  return info;
}

void MtaMachine::sample_prof_gauges(i64* out) const {
  // Gauge slots follow prof_gauge_info(): config_.processors issued counters,
  // then ready/blocked/outstanding. Before the first region procs_ is still
  // empty; pad the per-processor slots so the layout stays aligned (the
  // machine is idle then, so zero is also the true value).
  i64 ready = 0;
  i64 in_use = 0;
  i64 outstanding = 0;
  usize i = 0;
  for (u32 p = 0; p < config_.processors; ++p) {
    if (p < procs_.size()) {
      const Processor& proc = procs_[p];
      out[i++] = proc.issued;
      ready += static_cast<i64>(proc.ready_fifo.size());
      in_use += proc.streams_in_use;
      // acct_mem counts exactly the streams in kWaitMemory on a memory or
      // satisfied-sync round trip (compute occupancy and barrier releases are
      // charged elsewhere), so summing it replaces the per-thread walk.
      outstanding += proc.acct_mem;
    } else {
      out[i++] = 0;
    }
  }
  out[i++] = ready;
  out[i++] = in_use - ready;  // streams holding a slot but not issuable
  out[i] = outstanding;
}

void MtaMachine::on_finish(u32 tid, Cycle now) {
  set_status(tid, ThreadState::Status::kFinished);
  --live_;
  region_end_ = std::max(region_end_, now);
  Processor& proc = procs_[threads_[tid]->processor];
  if (!proc.admission_queue.empty()) {
    const u32 next = proc.admission_queue.pop();
    advance_thread(*threads_[next]);
    post_advance(next, now);
  } else {
    --proc.streams_in_use;
  }
  // A finished thread no longer participates in barriers.
  maybe_release_barrier();
}

}  // namespace archgraph::sim
