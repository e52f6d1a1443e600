#include "sim/machine.hpp"

namespace archgraph::sim {

namespace {

/// Destroys all coroutine frames (one per thread) even if simulate() threw.
/// The ThreadState control blocks themselves stay in the arena; their slots
/// recycle when the next region's spawns reuse the same indices.
struct FrameGuard {
  std::vector<ThreadState*>* threads;
  ~FrameGuard() {
    for (ThreadState* t : *threads) {
      if (t->handle) {
        t->handle.destroy();
        t->handle = nullptr;
      }
    }
    threads->clear();
  }
};

}  // namespace

Machine::~Machine() {
  for (ThreadState* t : pending_) {
    if (t->handle) {
      t->handle.destroy();
    }
  }
}

void Machine::run_region() {
  AG_CHECK(!pending_.empty(), "run_region() with no spawned threads");
  threads_ = std::move(pending_);
  pending_.clear();
  FrameGuard guard{&threads_};

  // Fresh SoA scheduling mirrors for this region's threads. Every thread
  // starts runnable with its first operation still unknown (the machines
  // advance each thread once at admission).
  thread_status_.assign(threads_.size(),
                        static_cast<u8>(ThreadState::Status::kRunnable));
  pending_kind_.assign(threads_.size(), static_cast<u8>(OpKind::kNone));

  if (observer_ != nullptr) {
    observer_->on_region_begin(*this);
  }
  if (prof_hook_ != nullptr) {
    prof_hook_->on_prof_region_begin(*this);
  }
  const i64 instructions_before = stats_.instructions;
  const CycleBreakdown breakdown_before = stats_.breakdown;
  const Cycle span = simulate();

  // The cycle-accounting invariant: every processor-cycle slot of the region
  // was attributed to exactly one category. Checked on every region — the
  // sum is 12 adds, simulate() is millions of events.
  const Cycle attributed = (stats_.breakdown - breakdown_before).total();
  AG_CHECK(attributed ==
               span * static_cast<Cycle>(processors()),
           "cycle accounting broke: attributed " + std::to_string(attributed) +
               " slots, expected processors x cycles = " +
               std::to_string(processors()) + " x " + std::to_string(span));

  stats_.regions += 1;
  stats_.threads += static_cast<i64>(threads_.size());
  stats_.cycles += span;
  region_log_.push_back(RegionRecord{
      .cycles = span,
      .instructions = stats_.instructions - instructions_before,
      .threads = static_cast<i64>(threads_.size()),
  });
  if (prof_hook_ != nullptr) {
    prof_hook_->on_prof_region_end(*this);
  }
  if (observer_ != nullptr) {
    observer_->on_region_end(*this);
  }
  for (const auto& t : threads_) {
    AG_CHECK(status_of(t->id) == ThreadState::Status::kFinished,
             "simulate() left a thread unfinished");
  }
  for (const auto& t : threads_) {
    if (t->error) {
      std::rethrow_exception(t->error);
    }
  }
}

Cycle Machine::simulate() {
  ledgers_.assign(processors(), Ledger{});
  waiters_.clear();
  barrier_waiting_.clear();
  release_buf_.clear();
  barrier_max_arrival_ = 0;
  live_ = static_cast<i64>(threads_.size());
  region_end_ = 0;
  events_.start_region();

  open_region();
  run_events();

  // The deadlock check comes first: a deadlocked region never closes its
  // ledgers, so the accounting check in run_region() would misreport it.
  AG_CHECK(live_ == 0,
           "simulation deadlocked: threads wait on full/empty tags or a "
           "barrier that can never be satisfied");
  // Close the accounting: attribute every processor's tail gap up to the
  // region end, so per-processor attribution totals exactly region_end_ and
  // the region's breakdown delta sums to processors x cycles.
  for (Ledger& l : ledgers_) {
    if (l.acct_until > region_end_) {
      // Only reachable with a zero barrier latency on the MTA or GPU: the
      // last arrival's issue slot extends one cycle past the release that
      // ended the region. Clip the overrun so attribution matches the
      // region span exactly.
      stats_.breakdown[CycleCat::kIssued] -= l.acct_until - region_end_;
      l.acct_until = region_end_;
    }
    settle(l, region_end_);
  }
  return region_end_;
}

bool Machine::try_sync(u32 tid, Cycle wake_at) {
  Operation& op = threads_[tid]->pending;
  AG_DCHECK(op.kind == OpKind::kReadFF || op.kind == OpKind::kReadFE ||
                op.kind == OpKind::kWriteEF,
            "try_sync() on a non-sync op");
  if (prof_hook_ != nullptr) {
    // Every probe (first attempt and each retry) is an access, so retry
    // traffic shows up in the heatmap.
    prof_hook_->on_access(op.addr, AccessClass::kRmw,
                          op.kind == OpKind::kWriteEF);
  }
  // read_ff/read_fe wait for full; write_ef waits for empty.
  const bool write = op.kind == OpKind::kWriteEF;
  if (memory_.full(op.addr) == write) {
    if (status_of(tid) != ThreadState::Status::kWaitSync) {
      ++ledgers_[threads_[tid]->processor].acct_sync;
    }
    set_status(tid, ThreadState::Status::kWaitSync);
    waiters_[op.addr].push_back(tid);
    return false;
  }
  if (write) {
    memory_.write(op.addr, op.value);
  } else {
    op.result = memory_.read(op.addr);
  }
  if (op.kind == OpKind::kReadFF) {
    return true;  // the tag stays full: nobody new can proceed
  }
  memory_.set_full(op.addr, write);
  // The tag flipped, which may unblock waiters of the opposite polarity.
  // Re-arbitrate every waiter in FIFO order; each recheck is another probe —
  // the retry traffic that makes hotspots hurt.
  const auto it = waiters_.find(op.addr);
  if (it != waiters_.end()) {
    for (const u32 waiter : it->second) {
      stats_.sync_retries += 1;
      events_.push(wake_at, core_.wake_event, waiter);
    }
    waiters_.erase(it);
  }
  return true;
}

void Machine::barrier_arrive(u32 tid, Cycle arrival) {
  ++ledgers_[threads_[tid]->processor].acct_barrier;  // until the resume
  set_status(tid, ThreadState::Status::kWaitBarrier);
  barrier_waiting_.emplace_back(tid, arrival);
  barrier_max_arrival_ = std::max(barrier_max_arrival_, arrival);
  maybe_release_barrier();
}

void Machine::maybe_release_barrier() {
  if (static_cast<i64>(barrier_waiting_.size()) != live_ || live_ == 0) {
    return;
  }
  const Cycle release = barrier_max_arrival_ + core_.barrier_latency;
  // Every live thread is parked here, so at most one release is ever
  // pending. Detach the episode first: resuming may finish threads, which
  // re-enters this function.
  AG_DCHECK(release_buf_.empty(), "overlapping barrier releases");
  release_buf_.swap(barrier_waiting_);  // leaves barrier_waiting_ empty
  barrier_max_arrival_ = 0;
  stats_.barriers += 1;
  for (Ledger& l : ledgers_) {
    settle(l, release);
  }
  if (observer_ != nullptr) {
    observer_->on_barrier_release(*this, release);
  }
  resume_barrier(release);
}

void Machine::resume_barrier(Cycle release) {
  // One event resumes the whole episode instead of one queue entry per
  // thread. The machine replays release_buf_ in arrival order, which is
  // exactly the order per-thread events at one time would pop in.
  for (const auto& [tid, arrival] : release_buf_) {
    threads_[tid]->pending.result = 0;
    set_status(tid, ThreadState::Status::kWaitMemory);
  }
  events_.push(release, core_.release_event, 0);
}

}  // namespace archgraph::sim
