// Fixed-seed random SIMT programs pinned to the cycle. The goldens of
// tests/sweep/machine_determinism_test.cpp pin registry kernels on stock
// GPU shapes; these programs reach the corners the kernels do not:
//   * lanes that diverge by op kind within a warp, next to phases where
//     every lane presents the same op stream;
//   * coalesced, scattered and scratchpad-reuse addresses, fetch_add on a
//     few hot counters, and data-dependent stores, so the order of data
//     effects within a warp shows in a memory checksum;
//   * full/empty producer-consumer pairs within and across warps;
//   * barriers between phases, partial last warps, and a streamed variant
//     with more warps than resident slots;
//   * warp widths 1, 7, 32 and 64 and non-power-of-two scratchpad banks,
//     scratchpad words and coalescing segments.
// Every row was captured from the scan-based issue loop that predates the
// lane-bitmask one, so a failure here means the model's behavior drifted.
// Each row runs plain and with a counting ProfHook attached; both must give
// the same numbers, and the hook's access counts are pinned too.
#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "sim/gpu/gpu_machine.hpp"
#include "sim/memory.hpp"

namespace archgraph::sim {
namespace {

struct Step {
  enum Kind : u8 { kCompute, kLoad, kStore, kFetchAdd, kProduce, kConsume,
                   kBarrier };
  Kind kind = kCompute;
  Addr addr = 0;
  i64 value = 0;
};

/// Keeps every value small, so data-dependent stores never overflow.
i64 mix(i64 sum, i64 v) { return (sum * 33 + (v & 0xFFFF)) & 0xFFFFF; }

SimThread run_steps(Ctx ctx, const std::vector<Step>* steps, Addr out) {
  i64 sum = 0;
  for (const Step& s : *steps) {
    switch (s.kind) {
      case Step::kCompute:
        co_await ctx.compute(s.value);
        break;
      case Step::kLoad:
        sum = mix(sum, co_await ctx.load(s.addr));
        break;
      case Step::kStore:
        co_await ctx.store(s.addr, s.value + sum);
        break;
      case Step::kFetchAdd:
        sum = mix(sum, co_await ctx.fetch_add(s.addr, s.value));
        break;
      case Step::kProduce:
        co_await ctx.write_ef(s.addr, s.value + sum);
        break;
      case Step::kConsume:
        sum = mix(sum, co_await ctx.read_fe(s.addr));
        break;
      case Step::kBarrier:
        co_await ctx.barrier();
        break;
    }
  }
  co_await ctx.store(out, sum);
}

/// Simulated memory of one program: every region it touches.
struct Layout {
  Addr coal = 0;      // one word per thread and phase: coalesced lanes
  Addr scat = 0;      // a wide array: scattered lanes
  Addr hot = 0;       // a few words reused all run long: scratchpad hits
  Addr counters = 0;  // fetch_add targets
  Addr cells = 0;     // one full/empty word per producer-consumer pair
  Addr out = 0;       // each thread's final mix
  Addr end = 0;
};

constexpr i64 kThreads = 150;
constexpr i64 kPhases = 3;
constexpr i64 kScatWords = 4096;
constexpr i64 kHotWords = 48;
constexpr i64 kCounters = 5;
constexpr i64 kPairsPerPhase = 12;

/// Draws the program for `seed`. A streamed program has no barriers and no
/// pairs, so its warps may wait for residency; a phased one needs every
/// thread resident.
std::vector<std::vector<Step>> make_program(u64 seed, bool streamed,
                                            const Layout& at) {
  Prng rng(seed);
  std::vector<std::vector<Step>> steps(kThreads);
  auto draw_kind = [&] {
    const u64 r = rng.below(10);
    return r < 3   ? Step::kCompute
           : r < 6 ? Step::kLoad
           : r < 8 ? Step::kStore
                   : Step::kFetchAdd;
  };
  // pattern 0: coalesced, 1: scattered, 2: scratchpad reuse.
  auto place = [&](Step::Kind kind, i64 tid, i64 phase, u64 pattern,
                   i64 index) -> Step {
    Step s{kind, 0, 0};
    switch (kind) {
      case Step::kCompute:
        s.value = rng.range(1, 6);
        return s;
      case Step::kFetchAdd:
        s.addr = at.counters + rng.below(kCounters);
        s.value = rng.range(1, 9);
        return s;
      default:
        break;
    }
    s.value = rng.range(0, 99);
    switch (pattern) {
      case 0:
        s.addr = at.coal + static_cast<Addr>(phase * kThreads + tid);
        break;
      case 1:
        s.addr = at.scat + rng.below(kScatWords);
        break;
      default:
        s.addr = at.hot + static_cast<Addr>((tid * 5 + index) % kHotWords);
        break;
    }
    return s;
  };
  for (i64 phase = 0; phase < kPhases; ++phase) {
    const bool convergent = rng.below(3) == 0;
    if (convergent) {
      // Every lane presents the same kinds; addresses follow one pattern
      // per step, so a step's group coalesces (or scatters) as a whole.
      const i64 len = rng.range(3, 7);
      for (i64 i = 0; i < len; ++i) {
        const Step::Kind kind = draw_kind();
        const u64 pattern = rng.below(3);
        for (i64 tid = 0; tid < kThreads; ++tid) {
          steps[tid].push_back(place(kind, tid, phase, pattern, i));
        }
      }
    } else {
      for (i64 tid = 0; tid < kThreads; ++tid) {
        const i64 len = rng.range(1, 7);
        for (i64 i = 0; i < len; ++i) {
          steps[tid].push_back(place(draw_kind(), tid, phase, rng.below(3), i));
        }
      }
    }
    if (!streamed) {
      // Producer-consumer pairs on their own cells: a cell starts each
      // phase empty and its consumer empties it again before the barrier.
      std::vector<u32> who(kThreads);
      for (u32 t = 0; t < kThreads; ++t) who[t] = t;
      rng.shuffle(std::span<u32>(who));
      for (i64 p = 0; p < kPairsPerPhase; ++p) {
        const Addr cell = at.cells + static_cast<Addr>(p);
        for (const auto& [tid, kind] :
             {std::pair{who[2 * p], Step::kProduce},
              std::pair{who[2 * p + 1], Step::kConsume}}) {
          std::vector<Step>& list = steps[tid];
          const usize phase_begin = list.size() - [&] {
            usize n = 0;
            while (n < list.size() &&
                   list[list.size() - 1 - n].kind != Step::kBarrier) {
              ++n;
            }
            return n;
          }();
          const usize pos =
              phase_begin + rng.below(list.size() - phase_begin + 1);
          list.insert(list.begin() + static_cast<std::ptrdiff_t>(pos),
                      Step{kind, cell, rng.range(1, 50)});
        }
      }
      if (phase + 1 < kPhases) {
        for (auto& list : steps) list.push_back(Step{Step::kBarrier, 0, 0});
      }
    }
  }
  return steps;
}

/// Counts what the profiled issue path reports, per access class.
class CountingHook final : public ProfHook {
 public:
  std::array<i64, 4> counts{};  // mem_ref, rmw, l1_hit, writes
  void on_prof_region_begin(const Machine&) override {}
  void on_advance(const Machine&, Cycle) override {}
  void on_access(Addr, AccessClass cls, bool write) override {
    switch (cls) {
      case AccessClass::kMemRef:
        ++counts[0];
        break;
      case AccessClass::kRmw:
        ++counts[1];
        break;
      case AccessClass::kL1Hit:
        ++counts[2];
        break;
      default:
        ADD_FAILURE() << "the GPU reported an SMP access class";
    }
    if (write) ++counts[3];
  }
  void on_prof_region_end(const Machine&) override {}
};

struct Outcome {
  i64 cycles = 0;
  i64 instructions = 0;
  i64 memory_ops = 0;
  i64 loads = 0;
  i64 stores = 0;
  i64 fetch_adds = 0;
  i64 sync_ops = 0;
  i64 sync_retries = 0;
  i64 barriers = 0;
  i64 l1_hits = 0;
  i64 mem_fills = 0;
  u64 checksum = 0;
  std::array<Cycle, kCycleCatCount> acct{};
  std::array<i64, 4> accesses{};  // profiled runs only

  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  os << "{" << o.cycles << ", " << o.instructions << ", " << o.memory_ops
     << ", " << o.loads << ", " << o.stores << ", " << o.fetch_adds << ", "
     << o.sync_ops << ", " << o.sync_retries << ", " << o.barriers << ", "
     << o.l1_hits << ", " << o.mem_fills << ", " << o.checksum << "u,\n {";
  for (usize i = 0; i < o.acct.size(); ++i) {
    os << (i == 0 ? "" : ", ") << o.acct[i];
  }
  os << "},\n {" << o.accesses[0] << ", " << o.accesses[1] << ", "
     << o.accesses[2] << ", " << o.accesses[3] << "}}";
  return os;
}

struct Row {
  const char* name;
  GpuConfig config;
  bool streamed;
  u64 seed;
  Outcome expect;
};

Outcome run_row(const Row& row, bool profiled) {
  GpuMachine m{row.config};
  SimMemory& mem = m.memory();
  Layout at;
  at.coal = mem.alloc(kPhases * kThreads);
  at.scat = mem.alloc(kScatWords);
  at.hot = mem.alloc(kHotWords);
  at.counters = mem.alloc(kCounters);
  at.cells = mem.alloc(kPairsPerPhase);
  at.out = mem.alloc(kThreads);
  at.end = at.out + kThreads;
  Prng fill(row.seed ^ 0x5ca1ab1e);
  for (Addr a = at.coal; a < at.cells; ++a) mem.write(a, fill.range(0, 999));
  for (i64 p = 0; p < kPairsPerPhase; ++p) mem.set_full(at.cells + p, false);

  const auto program = make_program(row.seed, row.streamed, at);
  for (i64 tid = 0; tid < kThreads; ++tid) {
    m.spawn(run_steps, &program[tid], at.out + static_cast<Addr>(tid));
  }
  CountingHook hook;
  if (profiled) m.set_prof_hook(&hook);
  m.run_region();
  m.set_prof_hook(nullptr);

  const MachineStats& s = m.stats();
  Outcome o{s.cycles,       s.instructions, s.memory_ops, s.loads,
            s.stores,       s.fetch_adds,   s.sync_ops,   s.sync_retries,
            s.barriers,     s.l1_hits,      s.mem_fills,  0,
            s.breakdown.slots, {}};
  u64 h = 1469598103934665603ULL;  // FNV-1a over every word and its tag
  for (Addr a = at.coal; a < at.end; ++a) {
    h = (h ^ static_cast<u64>(mem.read(a))) * 1099511628211ULL;
    h = (h ^ (mem.full(a) ? 1u : 0u)) * 1099511628211ULL;
  }
  o.checksum = h;
  if (profiled) o.accesses = hook.counts;
  return o;
}

GpuConfig gpu(u32 procs, u32 warps, u32 width) {
  GpuConfig c;
  c.processors = procs;
  c.warps_per_processor = warps;
  c.warp_width = width;
  return c;
}

GpuConfig odd_geometry(GpuConfig c, u32 banks, u32 words, u64 seg) {
  c.smem_banks = banks;
  c.smem_words = words;
  c.mem_seg_bytes = seg;
  return c;
}

/// Short latencies and free launch and barriers: ties between lanes and
/// warps land on the same cycles far more often.
GpuConfig fast(GpuConfig c) {
  c.memory_latency = 37;
  c.smem_latency = 5;
  c.region_fork_cycles = 0;
  c.barrier_overhead = 0;
  return c;
}

const std::vector<Row>& rows() {
  static const std::vector<Row> r = {
      {"w1", odd_geometry(gpu(4, 40, 1), 32, 4096, 40), false, 11,
       {5750, 3298, 1240, 484, 253, 431,
        72, 18, 2, 169, 999, 8137529317168593426u,
        {3298, 0, 0, 2560, 2430, 0, 0, 0, 0, 0, 0, 0, 0, 14712, 0},
        {568, 521, 169, 720}}},
      {"w7_odd", odd_geometry(gpu(3, 8, 7), 5, 77, 24), false, 12,
       {10329, 1978, 1976, 658, 683, 563,
        72, 14, 2, 147, 1656, 7295058861391953577u,
        {871, 0, 0, 3442, 2107, 0, 0, 0, 0, 0, 0, 0, 1107, 23452, 8},
        {1194, 649, 147, 1282}}},
      {"w32", gpu(2, 32, 32), false, 13,
       {10233, 818, 1821, 652, 701, 396,
        72, 24, 2, 299, 1122, 12036463268222421132u,
        {240, 0, 0, 1452, 1333, 0, 0, 0, 0, 0, 0, 0, 578, 16861, 2},
        {1054, 492, 299, 1133}}},
      {"w32_odd", odd_geometry(gpu(2, 3, 32), 12, 1000, 96), false, 14,
       {11115, 811, 1782, 645, 683, 382,
        72, 17, 2, 593, 815, 8919300290171750335u,
        {259, 0, 0, 2016, 2259, 0, 0, 0, 0, 0, 0, 0, 552, 17104, 40},
        {735, 471, 593, 1101}}},
      {"w64", gpu(1, 3, 64), false, 15,
       {9132, 494, 1480, 648, 389, 371,
        72, 19, 2, 220, 984, 13497433852422625355u,
        {126, 0, 0, 256, 512, 0, 0, 0, 0, 0, 0, 0, 368, 7863, 7},
        {817, 462, 220, 796}}},
      {"w64_odd", fast(odd_geometry(gpu(2, 2, 64), 3, 100, 56)), false, 16,
       {1797, 575, 1448, 331, 530, 515,
        72, 23, 2, 95, 1183, 6754306624542136090u,
        {177, 0, 0, 61, 77, 0, 0, 0, 0, 0, 0, 0, 398, 2864, 17},
        {766, 610, 95, 1081}}},
      {"w7_streamed", odd_geometry(gpu(2, 2, 7), 6, 30, 200), true, 17,
       {31391, 1884, 1454, 557, 538, 359,
        0, 0, 0, 118, 1252, 14702980622868187669u,
        {703, 0, 0, 0, 3387, 0, 0, 0, 0, 0, 0, 0, 1181, 57510, 1},
        {977, 359, 118, 897}}},
      {"w64_streamed", gpu(1, 1, 64), true, 18,
       {18802, 432, 1389, 529, 514, 346,
        0, 0, 0, 327, 953, 7171674415499801419u,
        {136, 0, 0, 0, 512, 0, 0, 0, 0, 0, 0, 0, 296, 17835, 23},
        {716, 346, 327, 860}}},
  };
  return r;
}

TEST(GpuRandomPrograms, PinnedPlainAndProfiled) {
  ASSERT_FALSE(rows().empty());
  for (const Row& row : rows()) {
    Outcome plain = run_row(row, /*profiled=*/false);
    plain.accesses = row.expect.accesses;  // only a profiled run counts them
    EXPECT_EQ(plain, row.expect) << row.name << " plain, actual:\n" << plain;
    const Outcome profiled = run_row(row, /*profiled=*/true);
    EXPECT_EQ(profiled, row.expect)
        << row.name << " profiled, actual:\n" << profiled;
  }
}

TEST(GpuRandomPrograms, LedgerClosesOnEveryRow) {
  for (const Row& row : rows()) {
    const Outcome o = run_row(row, /*profiled=*/false);
    Cycle total = 0;
    for (const Cycle c : o.acct) total += c;
    EXPECT_EQ(total, static_cast<Cycle>(row.config.processors) * o.cycles)
        << row.name;
  }
}

}  // namespace
}  // namespace archgraph::sim
