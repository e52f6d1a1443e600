// Abstract machine: the surface shared by the MTA and SMP models.
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
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
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
  virtual u64 event_heap_pushes() const = 0;

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
    state->root = state->handle;
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
  Machine() = default;

  /// Machine models call this when a barrier episode releases (from their
  /// maybe_release_barrier), after stats_.barriers is bumped.
  void notify_barrier_release(Cycle region_cycle) {
    if (observer_ != nullptr) {
      observer_->on_barrier_release(*this, region_cycle);
    }
  }

  /// Machine-specific simulation of one region. `threads` are freshly bound
  /// coroutines suspended before their first operation, indexed by thread
  /// id. Must return the region's span in cycles and leave every thread
  /// Finished.
  virtual Cycle simulate(std::vector<ThreadState*>& threads) = 0;

  // --- structure-of-arrays scheduling state, indexed by region-local tid ---
  // The event loops scan status and pending-op kind (warp readiness checks,
  // divergence grouping, gauge sampling); keeping them as dense u8 arrays
  // makes those scans sequential byte reads instead of a pointer chase into
  // each thread's control block. run_region() sizes both before simulate().

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

 private:
  static constexpr usize kStateChunk = 4096;

  /// Stable backing store for ThreadStates (see spawn()). unique_ptr<T[]>
  /// chunks: addresses never move, slots recycle by index across regions.
  std::vector<std::unique_ptr<ThreadState[]>> state_arena_;
  std::vector<ThreadState*> pending_;
  std::vector<RegionRecord> region_log_;
  RegionObserver* observer_ = nullptr;
};

}  // namespace archgraph::sim
