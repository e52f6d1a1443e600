// Cycle-approximate model of the Cray MTA-2 (paper §2.2).
//
// What is modelled, and the paper sentence it comes from:
//   * p processors, 128 hardware streams each; "a processor switches among
//     its streams every cycle, executing instructions from non-blocked
//     streams" — one issue slot per processor per cycle, granted to ready
//     streams in the order they became ready; threads beyond the stream
//     count wait for a free stream.
//   * "no local memory and no data caches ... parallelism, not caches, is
//     used to tolerate memory latency" — every memory operation costs one
//     issue slot and completes after the network+memory round trip
//     (~memory_latency cycles, default 100); the issuing thread blocks, the
//     processor does not.
//   * "logical memory addresses are hashed across physical memory to avoid
//     stride-induced hotspots" — banks are selected by an avalanche hash of
//     the address (a config switch disables hashing for the ablation bench);
//     each bank retires one operation per cycle, so concentrated access to
//     one word serializes — the paper's "hotspot".
//   * "one tag bit (the full-and-empty bit) is used to implement synchronous
//     load/store operations; a synchronous load/store retries until it
//     succeeds" — readff/readfe/writeef check the tag at the bank; an
//     unsatisfied access parks on a per-word wait list and re-arbitrates
//     (consuming bank slots) whenever the tag flips.
//   * "a machine instruction, int_fetch_add ... takes one cycle" — one issue
//     slot, atomic read-modify-write during its bank cycle.
//
// The issue loop (run_events) is cycle-driven, one cycle t at a time:
//   1. every queued event due by t — memory and compute completions,
//      full/empty retries, barrier releases — is handled in (time, seq)
//      order, and each thread it resumes joins the back of its processor's
//      ready ring;
//   2. processors 0..p-1, in index order, each issue their ring's front if
//      the ring is non-empty and their clock (the next cycle they may
//      issue) has reached t;
//   3. t jumps to the earliest clock of a processor with a ready stream or
//      the earliest queued event, so idle windows cost nothing.
// Issues are never queued as events; the queue holds only completions,
// retries and releases. The tie rule follows from the order: requests of
// one cycle reach the banks in processor-index order, after every event of
// that cycle, so a contended bank or word is arbitrated by (cycle,
// processor, ready order). A barrier released by a thread finishing after
// the last arrival is due in the past; the loop rewinds t to it, and a
// thread never issues before the cycle it became ready (a processor's
// clock is raised to that cycle when its ring fills).
//
// Not modelled (documented in DESIGN.md §6): the 3-wide LIW instruction
// format and 8-deep per-stream lookahead. Each costed operation is a
// single-issue instruction; kernels therefore need slightly more concurrency
// than real MTA code for full utilization, which only strengthens the
// paper's "performance is a function of parallelism" point.
#pragma once

#include "sim/machine.hpp"
#include "sim/ring.hpp"

namespace archgraph::sim {

struct MtaConfig {
  u32 processors = 1;
  u32 streams_per_processor = 128;
  /// Round-trip memory latency in cycles, excluding bank queuing ("about 100
  /// cycles", §2.2).
  Cycle memory_latency = 100;
  /// Hashed memory banks per processor; each retires 1 op/cycle. Deep enough
  /// that hashed traffic does not convoy even when all 128 streams issue in
  /// lockstep — the MTA-2's stated memory constraint is the network's one
  /// word per processor per cycle (enforced by the issue model), not bank
  /// count. A single hot word still serializes: one word lives in one bank.
  u32 banks_per_processor = 512;
  /// Cost of entering a parallel region (runtime creates/maps the threads).
  Cycle region_fork_cycles = 256;
  /// Extra cycles between the last barrier arrival and the release.
  Cycle barrier_overhead = 64;
  /// Disable to reproduce stride-induced hotspots (ablation).
  bool hash_addresses = true;
  /// Extra round-trip latency when a memory operation's bank belongs to a
  /// different processor's memory. 0 = the MTA-2's flat memory ("all memory
  /// is equidistant from all processors"). A positive value models the §6
  /// outlook — "in 2005 Cray will build a third-generation multithreaded
  /// architecture [from] commodity parts; the memory system will not be as
  /// flat" (the Eldorado/XMT direction) — which bench/ablation_xmt studies.
  Cycle nonuniform_extra = 0;
  double clock_hz = 220e6;  // the MTA-2's 220 MHz

  bool operator==(const MtaConfig&) const = default;
};

/// Rejects configurations the model cannot simulate (zero/negative
/// processors, streams, banks, latencies, clock); throws std::logic_error
/// with a message naming the offending MtaConfig field. Called by the
/// MtaMachine constructor and by the machine-spec factory before it.
void validate(const MtaConfig& config);

class MtaMachine final : public Machine {
 public:
  explicit MtaMachine(MtaConfig config = {});

  u32 processors() const override { return config_.processors; }
  double clock_hz() const override { return config_.clock_hz; }
  i64 concurrency() const override {
    return static_cast<i64>(config_.processors) *
           config_.streams_per_processor;
  }
  const MtaConfig& config() const { return config_; }

  /// Gauges: per-processor issued slots (cumulative; reset each region, the
  /// profiler clamps the restart), then aggregate ready streams, blocked
  /// streams, and outstanding memory references (instantaneous).
  std::vector<ProfGaugeInfo> prof_gauge_info() const override;
  void sample_prof_gauges(i64* out) const override;

 private:
  enum EventKind : u32 { kComplete, kRetry, kRelease };

  struct Processor {
    RingView ready_ring;       // window of MtaMachine::ring_arena_
    RingView admission_queue;  // threads waiting for a stream slot
    u32 streams_in_use = 0;
    Cycle clock = 0;   // next cycle this processor may issue
    i64 issued = 0;    // issue slots consumed (profiling gauge)
  };

  void open_region() override;
  void run_events() override;
  template <bool Profiled>
  void issue_loop();
  void handle(const Event& e);
  void issue(u32 proc, Cycle now);
  void post_advance(u32 tid, Cycle now);
  void on_finish(u32 tid, Cycle now);
  Cycle service_memory(Operation& op, Cycle issue_time, u32 proc);
  /// One bank probe of tid's pending full/empty op arriving at `arrival`
  /// (its first attempt, or a retry after a wake).
  void attempt_sync(u32 tid, Cycle arrival);
  /// True if `bank` is not local to `proc`, so a nonuniform_extra applies.
  bool remote(usize bank, u32 proc) const;
  usize bank_of(Addr addr) const;

  MtaConfig config_;
  Cycle net_half_;  // request leg: memory_latency / 2
  Cycle net_back_;  // response leg: the rest of memory_latency
  Cycle numa_half_;  // remote request leg: nonuniform_extra / 2
  Cycle numa_back_;  // remote response leg: the rest of nonuniform_extra

  // Region-scoped state (reset by open_region()).
  std::vector<Processor> procs_;
  std::vector<u32> ring_arena_;  // backs every processor's two rings
  std::vector<Cycle> bank_free_;
};

}  // namespace archgraph::sim
