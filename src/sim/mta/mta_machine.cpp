#include "sim/mta/mta_machine.hpp"

#include <algorithm>
#include <cmath>

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
  AG_CHECK(std::isfinite(c.clock_hz) && c.clock_hz > 0,
           "MtaConfig.clock_hz must be positive and finite (got " +
               std::to_string(c.clock_hz) + ")");
}

MtaMachine::MtaMachine(MtaConfig config)
    // Priority order mirrors the paper's latency-tolerance story: if any
    // stream has a memory round trip in flight the processor is covering
    // latency it failed to hide (no_ready_stream); otherwise parked sync
    // waiters, then barrier waiters, explain the silence; with no stream
    // holding work at all the slot is idle (fork ramp, admission, drain, or
    // an unused processor).
    : Machine({.stall = {CycleCat::kNoReadyStream, CycleCat::kSyncBlocked,
                         CycleCat::kBarrier, CycleCat::kIdleNoThread},
               .barrier_latency = config.barrier_overhead,
               .wake_event = kRetry,
               .release_event = kRelease}),
      config_(config) {
  validate(config_);
  // An odd latency puts its extra cycle on the response leg, so every
  // round trip totals exactly memory_latency; the NUMA extra splits the
  // same way.
  net_half_ = config_.memory_latency / 2;
  net_back_ = config_.memory_latency - net_half_;
  numa_half_ = config_.nonuniform_extra / 2;
  numa_back_ = config_.nonuniform_extra - numa_half_;
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

void MtaMachine::open_region() {
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
    procs_[p].ready_ring.bind(base, cap);
    procs_[p].admission_queue.bind(base + cap, cap);
    procs_[p].clock = config_.region_fork_cycles;  // the first issue slot
  }
  bank_free_.assign(
      static_cast<usize>(config_.banks_per_processor) * config_.processors, 0);

  // Admission: map threads to processors round-robin; threads beyond the
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
}

void MtaMachine::run_events() {
  if (prof_hook_ != nullptr) {
    issue_loop<true>();
  } else {
    issue_loop<false>();
  }
}

template <bool Profiled>
void MtaMachine::issue_loop() {
  // Admission readied every stream with work at the fork time; a region
  // whose threads all finished at admission has nothing to simulate.
  const bool work = std::any_of(
      procs_.begin(), procs_.end(),
      [](const Processor& proc) { return !proc.ready_ring.empty(); });
  Cycle t = work ? config_.region_fork_cycles : -1;
  Event e;
  while (t >= 0) {
    if constexpr (Profiled) {
      prof_hook_->on_advance(*this, t);
    }
    while (events_.pop_due(t, e)) {
      // Due events are at t, except a barrier release a late finish
      // scheduled in the past: t rewinds to it, and the events still due
      // at the old t wait until the loop climbs back.
      t = e.time;
      handle(e);
    }
    // Issue in processor order, and find the next cycle: the earliest
    // clock of a processor still holding a ready stream, or the earliest
    // queued event. -1 when neither exists: the region is drained.
    Cycle next = -1;
    for (u32 p = 0; p < config_.processors; ++p) {
      Processor& proc = procs_[p];
      if (proc.ready_ring.empty()) {
        continue;
      }
      if (proc.clock <= t) {
        issue(p, t);
        if (proc.ready_ring.empty()) {
          continue;
        }
      }
      if (next < 0 || proc.clock < next) {
        next = proc.clock;
      }
    }
    if (!events_.empty()) {
      const Cycle queued = events_.front_time();
      if (next < 0 || queued < next) {
        next = queued;
      }
    }
    t = next;
  }
}

void MtaMachine::handle(const Event& e) {
  switch (static_cast<EventKind>(e.kind)) {
    case kComplete: {
      const auto tid = static_cast<u32>(e.payload);
      acct_complete(tid, e.time);
      advance_thread(*threads_[tid]);
      post_advance(tid, e.time);
      break;
    }
    case kRetry:
      attempt_sync(static_cast<u32>(e.payload), e.time);
      break;
    case kRelease:
      // A barrier-release storm batched into one event: resume every
      // parked stream in arrival order.
      for (const auto& [tid, arrival] : release_buf_) {
        acct_complete(tid, e.time);
        advance_thread(*threads_[tid]);
        post_advance(tid, e.time);
      }
      release_buf_.clear();
      break;
  }
}

void MtaMachine::post_advance(u32 tid, Cycle now) {
  ThreadState* ts = threads_[tid];
  if (ts->pending.kind == OpKind::kDone) {
    on_finish(tid, now);
    return;
  }
  set_status(tid, ThreadState::Status::kRunnable);
  Processor& proc = procs_[ts->processor];
  if (proc.ready_ring.empty()) {
    // An idle processor's next slot is the cycle its first stream is ready.
    proc.clock = std::max(proc.clock, now);
  }
  proc.ready_ring.push(tid);
}

void MtaMachine::issue(u32 proc_id, Cycle now) {
  Processor& proc = procs_[proc_id];
  const u32 tid = proc.ready_ring.pop();
  ThreadState* ts = threads_[tid];
  Operation& op = ts->pending;

  // Cycle accounting: classify the silent gap up to this issue, then claim
  // the issue slot(s) — [now, proc.clock) is attributed as issued below.
  Ledger& acct = ledgers_[proc_id];
  settle(acct, now);

  switch (op.kind) {
    case OpKind::kCompute: {
      const i64 slots = std::max<i64>(op.value, 1);
      proc.clock = now + slots;
      stats_.instructions += slots;
      proc.issued += slots;
      claim(acct, CycleCat::kIssued, proc.clock);
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
      claim(acct, CycleCat::kIssued, proc.clock);
      ++acct.acct_mem;  // round trip in flight until kComplete
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
      claim(acct, CycleCat::kIssued, proc.clock);
      attempt_sync(tid, now + 1 + net_half_);
      break;
    }
    case OpKind::kBarrier: {
      proc.clock = now + 1;
      stats_.instructions += 1;
      proc.issued += 1;
      claim(acct, CycleCat::kIssued, proc.clock);
      barrier_arrive(tid, now);
      break;
    }
    case OpKind::kNone:
    case OpKind::kDone:
      AG_CHECK(false, "invalid operation reached the issue stage");
  }
}

bool MtaMachine::remote(usize bank, u32 proc) const {
  return config_.nonuniform_extra != 0 &&
         static_cast<u32>(bank / config_.banks_per_processor) != proc;
}

Cycle MtaMachine::service_memory(Operation& op, Cycle issue_time, u32 proc) {
  if (prof_hook_ != nullptr) {
    prof_hook_->on_access(op.addr,
                          op.kind == OpKind::kFetchAdd ? AccessClass::kRmw
                                                       : AccessClass::kMemRef,
                          op.kind != OpKind::kLoad);
  }
  const usize bank = bank_of(op.addr);
  const bool far = remote(bank, proc);
  const Cycle arrival = issue_time + 1 + net_half_ + (far ? numa_half_ : 0);
  const Cycle start = std::max(arrival, bank_free_[bank]);
  bank_free_[bank] = start + 1;
  // Data effect applied at service (event order == issue order, so
  // fetch-add sequences are deterministic).
  apply_data_effect(op);
  return start + 1 + net_back_ + (far ? numa_back_ : 0);
}

void MtaMachine::attempt_sync(u32 tid, Cycle arrival) {
  // Every probe, retries included, consumes a bank cycle.
  ThreadState* ts = threads_[tid];
  const usize bank = bank_of(ts->pending.addr);
  const bool far = remote(bank, ts->processor);
  const Cycle start =
      std::max(arrival + (far ? numa_half_ : 0), bank_free_[bank]);
  bank_free_[bank] = start + 1;

  if (!try_sync(tid, start + 1)) {
    return;  // parked on the word until its tag flips
  }
  start_sync_flight(tid, arrival);
  events_.push(start + 1 + net_back_ + (far ? numa_back_ : 0), kComplete,
               tid);
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
      ready += static_cast<i64>(proc.ready_ring.size());
      in_use += proc.streams_in_use;
      // acct_mem counts exactly the streams in kWaitMemory on a memory or
      // satisfied-sync round trip (compute occupancy and barrier releases are
      // charged elsewhere), so summing it replaces the per-thread walk.
      outstanding += ledgers_[p].acct_mem;
    } else {
      out[i++] = 0;
    }
  }
  out[i++] = ready;
  out[i++] = in_use - ready;  // streams holding a slot but not issuable
  out[i] = outstanding;
}

void MtaMachine::on_finish(u32 tid, Cycle now) {
  retire(tid, now);
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
