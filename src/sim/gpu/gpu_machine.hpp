// Cycle-approximate model of a SIMT/GPU-class machine — the third
// architecture class next to the MTA (sim/mta) and SMP (sim/smp). Grounding:
// Dehne & Yogaratnam, "Exploring the Limits of GPUs With Parallel Graph
// Algorithms" (PAPERS.md) — lockstep warps win on dense, regular, coalesced
// access and lose to latency-tolerant multithreading as divergence and
// scatter grow. This model makes that crossover measurable on the repo's
// machine-neutral kernels.
//
// What is modelled:
//   * p streaming multiprocessors (SMs). Threads are grouped into warps of
//     `warp_width` consecutive thread ids; warps are assigned round-robin to
//     SMs. Each SM holds at most `warps_per_processor` resident warps
//     (occupancy); excess warps queue for admission and enter as resident
//     warps retire — the GPU's analog of the MTA's stream admission.
//   * Warp-lockstep issue: an SM issues one warp-instruction per cycle to a
//     ready warp (round-robin over the ready list — latency hiding at warp
//     granularity, like the MTA's streams). A warp is ready only when none
//     of its lanes has an operation in flight: the whole warp waits for its
//     slowest lane. Lanes parked on a full/empty tag or a barrier are masked
//     off and do not block the rest of the warp.
//   * Divergence serialization: when the runnable lanes of a warp present
//     different operations (they took different branches, so their op
//     streams diverged), the lanes are partitioned into groups by operation
//     and the groups issue serially — a branch-mask split with implicit
//     reconvergence at the next common op. The first group's issue slot is
//     kIssued; every further group's slots are charged kDivergenceSerial.
//   * Coalesced-vs-scattered global memory: the addresses a warp's load or
//     store group touches are merged into aligned `mem_seg_bytes` segments;
//     one transaction per distinct segment. A warp touching one segment pays
//     one transaction; fully scattered lanes pay one each, serialized on the
//     SM's load/store pipe (extra transactions charged kCoalesceWait).
//     Atomics (fetch_add, full/empty probes) always serialize per lane. The
//     group completes — and the warp becomes ready again — `lat_mem` cycles
//     after its last transaction.
//   * Shared-memory scratchpad: each SM has a `smem_words`-word
//     direct-mapped scratchpad standing in for the staging a hand-tuned
//     CUDA port would manage explicitly (kernels here are machine-neutral
//     op streams, so the model captures the reuse instead of the
//     programmer). Loads/stores that hit it are serviced in `lat_smem`
//     cycles; lanes whose words map to the same of the `smem_banks` banks
//     serialize, the extra slots charged kBankConflict. The scratchpad is a
//     timing model only — data always comes from SimMemory at service time,
//     so it needs (and models) no coherence.
//   * Cycle accounting closes per region (sum == SMs x cycles): issue slots
//     split into kIssued / kDivergenceSerial / kCoalesceWait /
//     kBankConflict; silent gaps settle to kCoalesceWait (global round trip
//     in flight, latency not hidden), kSyncBlocked (lanes parked on tags),
//     kBarrier, or kIdleNoThread — the same settle discipline as the MTA.
//
// Not modelled (see DESIGN.md §3): instruction caches, L2, special-function
// units, and memory bandwidth limits beyond the one-transaction-per-cycle
// LSU; utilization is defined at warp-instruction granularity (a fully busy
// SM issues one warp-instruction per cycle), so Table-1-style utilization
// stays in [0, 1].
#pragma once

#include <array>
#include <vector>

#include "sim/machine.hpp"
#include "sim/ring.hpp"

namespace archgraph::sim {

struct GpuConfig {
  u32 processors = 1;           // streaming multiprocessors (SMs)
  u32 warps_per_processor = 32; // resident warp slots per SM (occupancy)
  u32 warp_width = 32;          // lanes per warp (lockstep width), <= 64
  /// Global-memory round trip in cycles (HBM-class: hundreds of cycles at
  /// ~1 GHz; the whole warp stalls for it unless other warps cover it).
  Cycle memory_latency = 300;
  /// Aligned coalescing segment: a warp's accesses falling in one
  /// `mem_seg_bytes` segment merge into one transaction.
  u64 mem_seg_bytes = 128;
  /// Shared-memory scratchpad banks per SM; lanes hitting the same bank
  /// serialize.
  u32 smem_banks = 32;
  /// Scratchpad capacity per SM in words (direct-mapped by word address).
  u32 smem_words = 4096;
  /// Scratchpad access latency in cycles.
  Cycle smem_latency = 24;
  /// Cost of entering a parallel region (kernel launch + block dispatch).
  Cycle region_fork_cycles = 512;
  /// Extra cycles between the last barrier arrival and the release
  /// (grid-wide sync is expensive on real GPUs: it ends the kernel).
  Cycle barrier_overhead = 128;
  double clock_hz = 1000e6;  // 1 GHz SM clock

  bool operator==(const GpuConfig&) const = default;
};

/// Rejects configurations the model cannot simulate (zero processors, warps
/// or lanes, more than 64 lanes — the widest real wavefront and the width of
/// the issue loop's lane masks —, a coalescing segment smaller than a word or
/// not word-aligned, non-positive latencies or clock); throws
/// std::logic_error naming the offending GpuConfig field. Called by the
/// GpuMachine constructor and by the machine-spec factory before it.
void validate(const GpuConfig& config);

class GpuMachine final : public Machine {
 public:
  explicit GpuMachine(GpuConfig config = {});

  u32 processors() const override { return config_.processors; }
  double clock_hz() const override { return config_.clock_hz; }
  /// Thread slots resident at once: SMs x warps x lanes. Kernel drivers size
  /// fine-grain worker counts from this, exactly like the MTA's streams.
  i64 concurrency() const override {
    return static_cast<i64>(config_.processors) * config_.warps_per_processor *
           config_.warp_width;
  }
  const GpuConfig& config() const { return config_; }

  /// Gauges: per-SM issued warp-instruction slots (cumulative; reset each
  /// region), then aggregate ready warps, blocked warps, and outstanding
  /// global-memory lane operations (instantaneous).
  std::vector<ProfGaugeInfo> prof_gauge_info() const override;
  void sample_prof_gauges(i64* out) const override;

 private:
  friend class Machine;  // runs handle<Profiled>() from its event loop
  // kBatch resumes a whole issue group (payload = warp id << 4 | OpKind) with
  // one event instead of one per lane; kRelease resumes a barrier episode
  // from release_buf_. Both replay their lanes in ascending-tid order, which
  // is exactly the order the per-lane events used to pop in.
  enum EventKind : u32 { kIssue, kComplete, kRetry, kBatch, kRelease };

  /// The op kinds whose issue group lands as one kBatch event, each with its
  /// slot in Warp::landing.
  static constexpr usize landing_slot(OpKind kind) {
    switch (kind) {
      case OpKind::kLoad:
        return 0;
      case OpKind::kStore:
        return 1;
      case OpKind::kFetchAdd:
        return 2;
      default:
        return 3;  // kCompute
    }
  }

  struct Warp {
    u32 first = 0;  // member lanes are the consecutive tids [first, last)
    u32 last = 0;
    u32 sm = 0;
    u32 live = 0;       // members not yet finished
    u32 in_flight = 0;  // lanes with an op in flight (blocks the next issue)
    bool resident = false;
    bool queued = false;  // sitting in the SM's ready fifo
    /// Per batch kind (landing_slot), the lanes (bit i = tid first + i) of
    /// the group whose kBatch event is pending. A warp issues only with
    /// nothing in flight and its groups of one round have distinct kinds,
    /// so at most one group per kind is in flight.
    std::array<u64, 4> landing{};
  };

  struct Sm {
    RingView ready_fifo;       // warp ids ready to issue (round-robin)
    RingView admission_queue;  // warps waiting for a resident slot
    u32 resident = 0;
    bool issue_scheduled = false;
    Cycle clock = 0;  // next cycle this SM's issue/LSU pipe is free
    i64 issued = 0;   // warp-instruction slots consumed (profiling gauge)

    // Scratchpad tag array (timing only; data lives in SimMemory).
    std::vector<Addr> smem_tags;
  };

  void open_region() override;
  void run_events() override;
  template <bool Profiled>
  void handle(const Event& e);
  void admit_warp(u32 wid, Cycle now);
  void maybe_enqueue_warp(u32 wid, Cycle now);
  /// Instantiated per profiling mode by handle() so the per-lane heatmap
  /// hook calls compile out of unprofiled runs entirely.
  template <bool Profiled>
  void handle_issue(u32 sm_id, Cycle now);
  void post_advance(u32 tid, Cycle now);
  void on_finish(u32 tid, Cycle now);
  void attempt_sync_retry(u32 tid, Cycle now);
  /// Scratchpad probe: true when `addr` currently tags its slot on `sm`
  /// (loads/stores only; misses fill the slot).
  bool smem_probe(Sm& sm, Addr addr, bool fill);
  usize bank_of(Addr addr) const {
    return bank_mask_ != 0 ? static_cast<usize>(addr & bank_mask_)
                           : static_cast<usize>(addr % config_.smem_banks);
  }
  /// Opens an empty distinct-segment set for the next memory group.
  void clear_segments() {
    if (++seg_gen_ == 0) {  // stamps wrapped: forget every old one
      for (SegSlot& slot : seg_set_) slot.gen = 0;
      seg_gen_ = 1;
    }
  }
  /// Adds `seg` to the open segment set; returns 1 if it was not in it yet.
  u32 insert_segment(usize seg) {
    const usize mask = seg_set_.size() - 1;
    usize h = static_cast<usize>((seg * 0x9E3779B97F4A7C15ULL) >>
                                 seg_hash_shift_);
    while (seg_set_[h].gen == seg_gen_) {
      if (seg_set_[h].seg == seg) {
        return 0;
      }
      h = (h + 1) & mask;
    }
    seg_set_[h] = {seg, seg_gen_};
    return 1;
  }
  usize segment_of(Addr addr) const {
    // validate() guarantees mem_seg_bytes is word-aligned, so the quotient
    // form equals the byte form; pow2 geometry (every stock preset) turns
    // the per-lane divide into a shift.
    if (seg_pow2_) {
      return static_cast<usize>(addr >> seg_shift_);
    }
    return static_cast<usize>(addr * kWordBytes / config_.mem_seg_bytes);
  }

  GpuConfig config_;

  // Precomputed address-map geometry (constructor): pow2 segment/bank/slot
  // counts — every stock preset — compile the three per-lane divides in the
  // issue path down to shifts and masks.
  bool seg_pow2_ = false;
  u32 seg_shift_ = 0;
  u32 bank_mask_ = 0;  // smem_banks - 1 when pow2, else 0 (use modulo)
  u32 smem_mask_ = 0;  // smem_words - 1 when pow2, else 0 (use modulo)

  // Region-scoped state (reset by open_region()).
  std::vector<Sm> sms_;
  std::vector<Warp> warps_;
  std::vector<u32> ring_arena_;  // backs every SM's two rings

  // Per memory group: lanes per scratchpad bank (zeroed again after the
  // group), and the distinct global segments as an open-addressed set of
  // bit_ceil(2 x warp_width) slots, emptied by bumping a generation stamp.
  std::vector<u32> bank_load_;
  struct SegSlot {
    usize seg = 0;
    u32 gen = 0;  // the slot holds `seg` only while gen == seg_gen_
  };
  std::vector<SegSlot> seg_set_;
  u32 seg_gen_ = 0;
  u32 seg_hash_shift_ = 0;  // 64 - log2(seg_set_.size()): top hash bits
};

}  // namespace archgraph::sim
