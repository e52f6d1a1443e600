// Cycle-approximate model of a bus-based symmetric multiprocessor
// (paper §2.1; calibrated to the Sun E4500 / 400 MHz UltraSPARC II testbed).
//
// The architectural contrast with the MTA model is a single line of code
// deep: on the SMP a memory operation occupies its *processor* for the full
// access latency (in-order cache microprocessor, no latency hiding), whereas
// on the MTA it occupies one issue slot and only blocks the issuing stream.
// Everything the paper says about the two machines' behaviour on irregular
// kernels follows from that difference plus the cache hierarchy:
//   * L1: small, direct-mapped, on-chip ("16 Kbytes direct-mapped", 1-2
//     cycle latency);
//   * L2: "4 Mbytes external cache", tens of cycles;
//   * main memory behind a shared bus: "bandwidth falls off to 1-2 GB/s and
//     latency increases to hundreds of cycles"; transfers occupy the bus, so
//     concurrent misses queue;
//   * coherence: write-invalidate at line granularity (a write to a line
//     another processor caches invalidates the remote copies — making the
//     D[D[v]] pointer chases of Shiloach–Vishkin ping-pong);
//   * "no hardware support for synchronization": barriers are software, cost
//     grows with p; full/empty emulation spins on locked bus RMWs.
#pragma once

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/machine.hpp"
#include "sim/ring.hpp"
#include "sim/smp/cache.hpp"

namespace archgraph::sim {

struct SmpConfig {
  u32 processors = 1;

  u64 l1_bytes = 16 * 1024;
  u32 l1_ways = 1;  // direct-mapped
  Cycle l1_latency = 2;

  u64 l2_bytes = 4 * 1024 * 1024;
  u32 l2_ways = 4;
  Cycle l2_latency = 22;

  /// Both caches use one line size so coherence has a single granularity.
  /// 64 B = the UltraSPARC-II E-cache block size.
  u64 line_bytes = 64;

  /// Memory latency beyond L2, unloaded (the "hundreds of cycles" regime:
  /// ~425 ns at 400 MHz).
  Cycle memory_latency = 170;
  /// Bus cycles one 64 B line transfer occupies: 12 cycles at 400 MHz is
  /// ~2 GB/s, the paper's "1 to 2 GB per second" main-memory bandwidth.
  Cycle bus_occupancy = 12;
  /// Processor-visible cost of a store that misses cache: the store buffer
  /// absorbs it and the fill happens in the background (bus + coherence are
  /// still charged to the system), so the CPU does not stall for the line.
  Cycle store_miss_cost = 6;
  /// Locked read-modify-write (atomic fetch-add, barrier arrival ticket).
  Cycle rmw_cost = 90;
  /// Extra cycles charged to a write that must invalidate remote copies.
  Cycle coherence_penalty = 25;

  /// Software barrier: release = max arrival + base + per_proc * p.
  Cycle barrier_base = 300;
  Cycle barrier_per_proc = 120;

  /// Oversubscription (more threads than processors): OS-like round-robin.
  Cycle context_switch = 3000;
  Cycle quantum = 50000;

  /// Thread-pool region launch (pthread wakeup, not thread creation).
  Cycle region_fork_cycles = 3000;

  double clock_hz = 400e6;  // 400 MHz UltraSPARC II

  bool operator==(const SmpConfig&) const = default;
};

/// Rejects configurations the model cannot simulate (zero/negative
/// processors, cache sizes, ways, latencies, malformed line geometry);
/// throws std::logic_error with a message naming the offending SmpConfig
/// field. Called by the SmpMachine constructor and by the machine-spec
/// factory before it.
void validate(const SmpConfig& config);

class SmpMachine final : public Machine {
 public:
  explicit SmpMachine(SmpConfig config = {});

  u32 processors() const override { return config_.processors; }
  double clock_hz() const override { return config_.clock_hz; }
  i64 concurrency() const override { return config_.processors; }
  const SmpConfig& config() const { return config_; }

  /// Gauges: per-processor cycles spent waiting at barriers (cumulative;
  /// accumulates across regions), then the instantaneous count of threads
  /// parked at the current barrier episode.
  std::vector<ProfGaugeInfo> prof_gauge_info() const override;
  void sample_prof_gauges(i64* out) const override;

 private:
  enum EventKind : u32 { kWake };
  static constexpr u32 kNone = ~u32{0};

  struct Processor {
    Processor(Cache l1_cache, Cache l2_cache)
        : l1(std::move(l1_cache)), l2(std::move(l2_cache)) {}

    Cache l1;
    Cache l2;
    RingView ready_fifo;  // window of SmpMachine::ring_arena_
    u32 running = kNone;
    u32 last_ran = kNone;
    bool oversubscribed = false;
    Cycle clock = 0;
    Cycle quantum_used = 0;
    Cycle barrier_wait = 0;  // cycles parked at barriers (profiling gauge)
  };

  /// A processor's pending dispatch, ordered against the event queue by
  /// (time, seq); the seq comes from EventQueue::draw_seq(). An in-order
  /// processor has at most one, so it lives here instead of in the queue,
  /// packed into one 128-bit key: time in the high 64 bits, then seq, then
  /// the processor in the low kProcBits. Seqs are unique, so the processor
  /// bits never decide an order; they name the winner of earliest_slot().
  using SlotKey = unsigned __int128;
  static constexpr u32 kProcBits = 5;  // processors <= 32
  static SlotKey slot_key(Cycle time, u64 seq, u32 proc) {
    AG_DCHECK(time >= 0 && seq < (u64{1} << (64 - kProcBits)),
              "dispatch slot key out of range");
    return (static_cast<SlotKey>(time) << 64) | (seq << kProcBits) | proc;
  }
  static Cycle slot_time(SlotKey key) { return static_cast<Cycle>(key >> 64); }
  static u64 slot_seq(SlotKey key) {
    return static_cast<u64>(key) >> kProcBits;
  }
  static u32 slot_proc(SlotKey key) {
    return static_cast<u32>(key) & ((u32{1} << kProcBits) - 1);
  }
  /// An empty slot sorts after every real key and decodes to a (time, seq)
  /// that every queued event precedes.
  static constexpr SlotKey kEmptySlot =
      (static_cast<SlotKey>(std::numeric_limits<Cycle>::max()) << 64) |
      ~u64{0};

  /// Stall decomposition of one data access. data_access_cost() fills it so
  /// the fields sum to at most the returned cost; the remainder (cost minus
  /// the sum) is the access's pipeline-occupied ("issued") cycles.
  struct AccessSplit {
    Cycle l1_miss = 0;   // CycleCat::kL1MissWait
    Cycle l2_miss = 0;   // CycleCat::kL2MissWait
    Cycle mem_fill = 0;  // CycleCat::kMemFillWait
    Cycle bus = 0;       // CycleCat::kBusContention
  };

  void open_region() override;
  /// The SMP's event loop: handles, in (time, seq) order, whichever comes
  /// first of the earliest dispatch slot and the queue head. The queue holds
  /// only wakes (full/empty and barrier resumes).
  void run_events() override;
  template <bool Profiled>
  void run_slots();
  /// The smallest slot key. Branch-free: std::min on the 128-bit key
  /// compiles to cmp/sbb/cmov, and two running minima over the even-padded
  /// array halve the dependency chain. Which processor wins changes from
  /// one dispatch to the next, so a branch here would mispredict at every
  /// width.
  SlotKey earliest_slot() const {
    const SlotKey* const key = slots_.data();
    SlotKey a = key[0];
    SlotKey b = key[1];
    for (usize i = 2; i < slots_.size(); i += 2) {
      a = std::min(a, key[i]);
      b = std::min(b, key[i + 1]);
    }
    return std::min(a, b);
  }

  /// The software barrier resumes inline: each released thread steps past
  /// the barrier at once, and its next op runs at dispatch.
  void resume_barrier(Cycle release) override;
  /// Runs one op (or a context switch into it) on the processor; returns
  /// the time of its next dispatch, or -1 when it has nothing to run until
  /// a wake. The caller fills or empties the processor's slot accordingly.
  Cycle handle_dispatch(u32 proc_id, Cycle now);
  void enqueue_ready(u32 tid, Cycle now);
  /// Executes the thread's pending op starting at `start`; returns its
  /// completion time, or -1 if the thread blocked (sync wait / barrier).
  Cycle execute_op(u32 tid, Cycle start);
  Cycle data_access_cost(Processor& proc, u32 proc_id, const Operation& op,
                         Cycle start, AccessSplit& split);
  Cycle bus_transaction(Cycle request, Cycle occupancy);
  void invalidate_remote(u64 line, u32 writer);
  /// Sharer bitmask of `line`: bit p set when processor p may hold it.
  u32& sharers(u64 line) {
    AG_DCHECK(line < directory_.size(),
              "coherence directory does not cover the line");
    return directory_[line];
  }
  void on_finish(u32 tid, Cycle now);

  SmpConfig config_;

  // Region-scoped state.
  std::vector<Processor> procs_;
  /// One dispatch slot per processor, padded with empty slots to an even
  /// count of at least two for earliest_slot().
  std::vector<SlotKey> slots_;
  std::vector<u32> ring_arena_;  // backs every processor's ready ring
  // Coherence directory: one sharer bitmask per line of simulated memory,
  // indexed by line number (0 = no sharer). Sized at each region start and
  // never shrunk; like the caches it stays warm across regions.
  std::vector<u32> directory_;
  Cycle bus_free_ = 0;
};

}  // namespace archgraph::sim
