// Abstract machine: the surface shared by the MTA, SMP and GPU models, and
// the machine core they all simulate on (see "Machine core" below).
//
// Usage pattern (one parallel phase = one region):
//
//   MtaMachine machine(config);
//   SimArray<i64> data(machine.memory(), n);   // setup: zero simulated cost
//   for (i64 t = 0; t < workers; ++t) machine.spawn(kernel, t, args...);
//   machine.run_region();                      // simulate until all finish
//   double secs = machine.seconds();           // cycles / clock
//
// Host code between regions is free (experiment orchestration); anything the
// paper's clock would have measured must run inside a region. Cycles and
// statistics accumulate across regions so a multi-phase algorithm reports one
// total, exactly like wall-clock timing around the whole computation.
//
// Machine core. The paper tells the machines apart by how they issue
// instructions and how their memory behaves; what synchronization *means*
// is the same on all of them, only its cost differs. So Machine owns the
// region machinery every model shares: the region's threads and event
// queue, full/empty semantics with one FIFO waiter list per word, barrier
// episodes, the per-processor cycle ledgers, and the region prologue and
// epilogue (reset, deadlock check, ledger close). A machine supplies its
// issue loop and memory model, plus three pieces of data and code fixed at
// construction: the stall category of each ledger state, the barrier
// release latency, and how a released barrier resumes its threads.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/memory.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace archgraph::sim {

class Machine;

/// How a simulated memory access was serviced — the classification a profiler
/// hook receives for attribution. The MTA reports kMemRef/kRmw (it has no
/// caches); the SMP reports the cache level that satisfied the access plus
/// kRmw for locked bus operations (fetch-add, full/empty probes).
enum class AccessClass : u8 {
  kMemRef,   // MTA: hashed-bank memory reference (load/store/fetch-add)
  kRmw,      // locked RMW / full-empty probe (bank cycle on MTA, bus on SMP)
  kL1Hit,    // SMP: satisfied by L1
  kL2Hit,    // SMP: satisfied by L2
  kMemFill,  // SMP: line fill from main memory over the bus
};

/// Descriptor for one machine-specific profiling gauge (see
/// Machine::prof_gauge_info). `cumulative` gauges are monotone counters whose
/// per-interval deltas are the interesting series (e.g. per-processor issued
/// instructions); instantaneous gauges are levels sampled as-is (e.g. ready
/// streams).
struct ProfGaugeInfo {
  std::string name;
  bool cumulative = true;
};

/// Profiling hook on a machine's simulation inner loop. Unlike
/// RegionObserver (region/barrier granularity), an installed ProfHook sees
/// every event-queue pop and every serviced memory access, which is what
/// interval sampling and per-data-structure attribution need. All methods are
/// read-only with respect to the simulation: a hook must never mutate machine
/// state, so simulated cycle counts are byte-identical with and without one
/// installed. When no hook is attached the cost is a single null test.
class ProfHook {
 public:
  virtual ~ProfHook() = default;

  /// Called by run_region() before simulation starts (after any
  /// RegionObserver::on_region_begin); machine.cycles() is the region's
  /// absolute start time.
  virtual void on_prof_region_begin(const Machine& machine) = 0;

  /// Called once per event-queue pop with the event's region-relative time.
  /// Times are nondecreasing within a region; the hook samples its counters
  /// whenever `region_cycle` crosses an interval boundary.
  virtual void on_advance(const Machine& machine, Cycle region_cycle) = 0;

  /// Called for every serviced simulated memory access (data effect applied
  /// or cache probed), with the accessed word address and how it resolved.
  virtual void on_access(Addr addr, AccessClass cls, bool write) = 0;

  /// Called by run_region() after statistics are updated (before any
  /// RegionObserver::on_region_end).
  virtual void on_prof_region_end(const Machine& machine) = 0;
};

/// Observation hooks on a machine's simulation lifecycle. An installed
/// observer (obs::TraceSession is the canonical one) sees every simulated
/// parallel region and every barrier episode inside it, which is enough to
/// attribute cycle/instruction/memory-counter deltas to algorithm phases:
/// multi-region programs are sliced at run_region() boundaries, and
/// single-region barrier-separated programs at barrier releases.
class RegionObserver {
 public:
  virtual ~RegionObserver() = default;

  /// Called by run_region() before simulation starts; machine.stats() still
  /// reflects everything accumulated before this region.
  virtual void on_region_begin(const Machine& machine) = 0;

  /// A barrier episode released all live threads inside the running region.
  /// `region_cycle` is the release time relative to the region's start;
  /// machine.stats() reflects every operation ordered before the release
  /// (all threads are quiesced at a barrier) except stats().cycles, which is
  /// only advanced when the region completes.
  virtual void on_barrier_release(const Machine& machine,
                                  Cycle region_cycle) = 0;

  /// Called by run_region() after statistics and the region log are updated.
  virtual void on_region_end(const Machine& machine) = 0;
};

class Machine {
 public:
  virtual ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  SimMemory& memory() { return memory_; }
  const MachineStats& stats() const { return stats_; }
  Cycle cycles() const { return stats_.cycles; }

  virtual u32 processors() const = 0;
  virtual double clock_hz() const = 0;

  /// Hardware thread slots the machine runs concurrently: streams x
  /// processors on the MTA, processors on the SMP. Kernel drivers size their
  /// worker counts from this, which is exactly how the paper's two codes
  /// differ (thousands of fine-grain threads vs. p coarse threads).
  virtual i64 concurrency() const = 0;

  /// Host-side diagnostic: pushes that took the event queue's overflow heap
  /// so far (EventQueue::heap_pushes). Not simulated state; never serialized.
  u64 event_heap_pushes() const { return events_.heap_pushes(); }
  /// Host-side diagnostics: events pushed so far, and events a machine kept
  /// outside the queue and handled in (time, seq) order with it
  /// (EventQueue::take_external; only the SMP's dispatch slots do). Their sum
  /// is every event handled. Not simulated state; never serialized.
  u64 events_pushed() const { return events_.pushes(); }
  u64 events_fused() const { return events_.fused(); }

  /// Simulated wall-clock seconds so far (cycles / clock rate).
  double seconds() const { return static_cast<double>(cycles()) / clock_hz(); }

  /// Table-1 statistic over everything simulated so far.
  double utilization() const { return stats_.utilization(processors()); }

  /// Queues a kernel coroutine for the next region. `f(ctx, args...)` must
  /// return SimThread. Arguments are copied into the coroutine frame.
  ///
  /// Control blocks live in a chunked arena indexed by spawn order, so
  /// consecutive thread ids are adjacent in host memory: the event loops'
  /// per-thread accesses (a warp's lanes, a processor's streams) walk
  /// contiguous ThreadStates instead of chasing pointers to pool-recycled
  /// blocks. Chunks are never freed or moved (coroutine frames hold
  /// ThreadState pointers), and recycle by index between regions.
  template <typename F, typename... Args>
  void spawn(F&& f, Args&&... args) {
    const usize tid = pending_.size();
    const usize chunk = tid / kStateChunk;
    if (chunk == state_arena_.size()) {
      state_arena_.push_back(std::make_unique<ThreadState[]>(kStateChunk));
    }
    ThreadState* state = &state_arena_[chunk][tid % kStateChunk];
    *state = ThreadState{};
    state->id = static_cast<u32>(tid);
    Ctx ctx{state};
    SimThread thread =
        std::invoke(std::forward<F>(f), ctx, std::forward<Args>(args)...);
    state->handle = thread.bind(state);
    pending_.push_back(state);
  }

  /// Simulates all spawned threads to completion; accumulates cycles and
  /// statistics; rethrows the first kernel exception, if any.
  void run_region();

  /// One entry per completed region: phase-level breakdown of a multi-region
  /// program (used by the utilization analyses and the examples).
  struct RegionRecord {
    Cycle cycles = 0;
    i64 instructions = 0;
    i64 threads = 0;
  };
  const std::vector<RegionRecord>& region_log() const { return region_log_; }

  /// Resets accumulated time and statistics (memory contents are kept), so
  /// one machine + input can be timed across repetitions.
  void reset_stats() {
    stats_ = MachineStats{};
    region_log_.clear();
  }

  /// Installs (or clears, with nullptr) the observer notified of region and
  /// barrier events. The observer is not owned and must outlive its
  /// installation.
  void set_region_observer(RegionObserver* observer) { observer_ = observer; }
  RegionObserver* region_observer() const { return observer_; }

  /// Installs (or clears, with nullptr) the profiling hook that sees every
  /// event pop and memory access (obs::prof::ProfSession is the canonical
  /// one). Not owned; must outlive its installation.
  void set_prof_hook(ProfHook* hook) { prof_hook_ = hook; }
  ProfHook* prof_hook() const { return prof_hook_; }

  /// Machine-specific profiling gauges beyond MachineStats: descriptors and a
  /// matching sampler. `out` must hold prof_gauge_info().size() values; the
  /// sampler is only called while a region is simulating (between the prof
  /// hook's region_begin/region_end) and must not mutate machine state.
  virtual std::vector<ProfGaugeInfo> prof_gauge_info() const { return {}; }
  virtual void sample_prof_gauges(i64* out) const { (void)out; }

 protected:
  /// One processor's cycle ledger. Slots in [0, acct_until) are attributed;
  /// the wait counters classify the gap up to the next transition (settle()).
  struct Ledger {
    Cycle acct_until = 0;
    i32 acct_mem = 0;      // threads with a memory or sync round trip in flight
    i32 acct_sync = 0;     // threads parked on a full/empty tag
    i32 acct_barrier = 0;  // threads waiting at the barrier
  };

  /// What a machine tells the core at construction.
  struct CoreParams {
    /// The category of a silent ledger gap, by priority: some thread has a
    /// round trip in flight, else one is parked on a tag, else one waits at
    /// the barrier, else the processor holds no work.
    std::array<CycleCat, 4> stall{};
    /// Cycles from the last barrier arrival to the release.
    Cycle barrier_latency = 0;
    /// Event kind a woken full/empty waiter is queued with (payload: tid).
    u32 wake_event = 0;
    /// Event kind of a barrier release under the default resume_barrier().
    u32 release_event = 0;
  };

  explicit Machine(const CoreParams& core) : core_(core) {}

  // --- what each machine supplies ----------------------------------------

  /// Machine-specific region start: resets the issue and memory model and
  /// admits threads_ at the fork time. The shared region state (ledgers,
  /// waiters, barrier episode, event queue) is already reset.
  virtual void open_region() = 0;
  /// Runs the region's events dry. The GPU implements it as
  /// run_events_for(*this) over its own `handle<Profiled>(const Event&)`;
  /// the SMP runs its own loop, merging per-processor dispatch slots with
  /// the queue's wakes in (time, seq) order, and the MTA a cycle-driven
  /// issue loop that takes due events from the queue (EventQueue::pop_due).
  virtual void run_events() = 0;
  /// Resumes a released barrier episode: the threads in release_buf_, in
  /// arrival order. The default (MTA, GPU) marks them in flight and pushes
  /// one CoreParams::release_event at `release`; the machine replays
  /// release_buf_ when that event pops. The SMP resumes inline instead.
  virtual void resume_barrier(Cycle release);

  /// The event loop, instantiated once with the per-pop profiler call and
  /// once without, so unprofiled runs pay no per-event null test. M::handle
  /// is the machine's event switch; it is not virtual.
  template <typename M>
  void run_events_for(M& machine) {
    if (prof_hook_ != nullptr) {
      drain<true>(machine);
    } else {
      drain<false>(machine);
    }
  }

  // --- cycle ledger ------------------------------------------------------

  /// Attributes the unaccounted slots [acct_until, t) of `l` to the stall
  /// category its wait counters imply, then advances acct_until. A no-op
  /// when t <= acct_until (past-time events).
  void settle(Ledger& l, Cycle t) {
    if (t <= l.acct_until) {
      return;  // already attributed (or a past-time event) — nothing to add
    }
    const usize state = l.acct_mem > 0       ? 0
                        : l.acct_sync > 0    ? 1
                        : l.acct_barrier > 0 ? 2
                                             : 3;
    stats_.breakdown[core_.stall[state]] += t - l.acct_until;
    l.acct_until = t;
  }

  /// Claims the unaccounted slots up to `t` as `cat` occupancy. Clamped:
  /// when a barrier released by a late finish replays resumed threads at
  /// already-settled times, only the unclaimed tail is charged — acct_until
  /// never moves backward, so no slot is attributed twice.
  void claim(Ledger& l, CycleCat cat, Cycle t) {
    if (t > l.acct_until) {
      stats_.breakdown[cat] += t - l.acct_until;
      l.acct_until = t;
    }
  }

  /// Settles the completing thread's processor at `now` and releases the
  /// wait counter its pre-advance pending op held.
  void acct_complete(u32 tid, Cycle now) {
    const ThreadState* ts = threads_[tid];
    Ledger& l = ledgers_[ts->processor];
    settle(l, now);
    switch (ts->pending.kind) {
      case OpKind::kLoad:
      case OpKind::kStore:
      case OpKind::kFetchAdd:
      case OpKind::kReadFF:
      case OpKind::kReadFE:
      case OpKind::kWriteEF:
        --l.acct_mem;  // the round trip (or satisfied sync flight) landed
        break;
      case OpKind::kBarrier:
        --l.acct_barrier;  // the release reached this thread
        break;
      default:
        break;  // compute occupancy: the slots were attributed at issue
    }
  }

  // --- memory semantics --------------------------------------------------

  /// The data effect of a load, store or fetch-add, applied when the
  /// machine services it. A store leaves its word full.
  void apply_data_effect(Operation& op) {
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
        AG_CHECK(false, "apply_data_effect() on a non-data op");
    }
  }

  /// One full/empty probe of tid's pending read_ff/read_fe/write_ef.
  /// Satisfied: applies the data and tag effect, and a tag flip wakes every
  /// waiter on the word at `wake_at`, in FIFO order, to re-arbitrate.
  /// Unsatisfied: parks tid (kWaitSync) at the back of the word's FIFO; a
  /// thread not already parked opens a sync wait on its ledger. The caller
  /// books the cost of the probe and, when satisfied, the completion.
  bool try_sync(u32 tid, Cycle wake_at);

  /// Ledger side of a satisfied probe on a machine whose sync op then flies
  /// back like a memory op (MTA, GPU): the flight counts as memory in
  /// flight, and a woken retry first classifies its parked gap up to `now`.
  /// Marks tid in flight; the caller schedules its completion.
  void start_sync_flight(u32 tid, Cycle now) {
    Ledger& l = ledgers_[threads_[tid]->processor];
    if (status_of(tid) == ThreadState::Status::kWaitSync) {
      settle(l, now);
      --l.acct_sync;
    }
    ++l.acct_mem;
    set_status(tid, ThreadState::Status::kWaitMemory);
  }

  // --- thread lifecycle and barrier episodes ------------------------------

  /// Marks tid finished at `now`. The caller then gives the machine's own
  /// bookkeeping a turn and calls maybe_release_barrier(): a finished thread
  /// no longer participates in barriers.
  void retire(u32 tid, Cycle now) {
    set_status(tid, ThreadState::Status::kFinished);
    --live_;
    region_end_ = std::max(region_end_, now);
  }
  /// Parks tid at the barrier (it arrived at `arrival`) and releases the
  /// episode if every live thread is now parked.
  void barrier_arrive(u32 tid, Cycle arrival);
  /// Releases the episode once every live thread is parked at the barrier:
  /// `release` = last arrival + barrier latency. Settles every ledger to the
  /// release before observers snapshot stats() — nothing is in flight, so
  /// per-phase breakdown deltas slice exactly at barrier boundaries — then
  /// hands the episode to resume_barrier().
  void maybe_release_barrier();
  /// Threads parked at the current barrier episode (profiling gauge).
  usize barrier_parked() const { return barrier_waiting_.size(); }

  // --- structure-of-arrays scheduling state, indexed by region-local tid ---
  // The event loops scan status and pending-op kind (warp readiness checks,
  // divergence grouping, gauge sampling); keeping them as dense u8 arrays
  // makes those scans sequential byte reads instead of a pointer chase into
  // each thread's control block. run_region() sizes both before simulating.

  ThreadState::Status status_of(u32 tid) const {
    return static_cast<ThreadState::Status>(thread_status_[tid]);
  }
  void set_status(u32 tid, ThreadState::Status s) {
    thread_status_[tid] = static_cast<u8>(s);
  }
  OpKind pending_kind(u32 tid) const {
    return static_cast<OpKind>(pending_kind_[tid]);
  }
  /// Resumes the thread's coroutine and refreshes its pending-kind mirror —
  /// the machines' only advance path during simulation.
  void advance_thread(ThreadState& ts) {
    ts.advance();
    pending_kind_[ts.id] = static_cast<u8>(ts.pending.kind);
  }

  SimMemory memory_;
  MachineStats stats_;
  std::vector<u8> thread_status_;  // ThreadState::Status per tid
  std::vector<u8> pending_kind_;   // OpKind of each thread's pending op
  /// Read directly by the machine models' event loops and memory paths (the
  /// per-event/per-access hot paths), so it lives here rather than behind a
  /// notify helper: unprofiled runs pay exactly one null test per site.
  ProfHook* prof_hook_ = nullptr;

  // --- region state, reset at every region start ---------------------------
  std::vector<ThreadState*> threads_;  // this region's threads, by tid
  std::vector<Ledger> ledgers_;        // one per processor
  /// The released episode awaiting resume_barrier(): (tid, arrival) pairs.
  std::vector<std::pair<u32, Cycle>> release_buf_;
  EventQueue events_;

 private:
  static constexpr usize kStateChunk = 4096;

  template <bool Profiled, typename M>
  void drain(M& machine) {
    while (!events_.empty()) {
      const Event e = events_.pop();
      if constexpr (Profiled) {
        prof_hook_->on_advance(*this, e.time);
      }
      machine.template handle<Profiled>(e);
    }
  }

  /// One region: shared reset, the machine's admission and event loop, the
  /// deadlock check and the ledger close. Returns the region's span.
  Cycle simulate();

  CoreParams core_;
  /// Full/empty waiters: one FIFO of parked tids per word that has any.
  /// Keyed by address so nothing is sized per simulated word; a wake drains
  /// and erases the word's whole list.
  std::unordered_map<Addr, std::vector<u32>> waiters_;
  std::vector<std::pair<u32, Cycle>> barrier_waiting_;  // (tid, arrival)
  Cycle barrier_max_arrival_ = 0;
  i64 live_ = 0;  // threads of this region not yet finished
  Cycle region_end_ = 0;  // latest finish so far: the region's span

  /// Stable backing store for ThreadStates (see spawn()). unique_ptr<T[]>
  /// chunks: addresses never move, slots recycle by index across regions.
  std::vector<std::unique_ptr<ThreadState[]>> state_arena_;
  std::vector<ThreadState*> pending_;
  std::vector<RegionRecord> region_log_;
  RegionObserver* observer_ = nullptr;
};

}  // namespace archgraph::sim
