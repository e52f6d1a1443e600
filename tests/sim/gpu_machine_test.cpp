// The SIMT machine model: warp-lockstep issue, divergence serialization,
// coalesced-vs-scattered global transactions, scratchpad bank conflicts,
// warp-scheduler latency hiding, and block-at-a-time admission.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/prng.hpp"
#include "sim/gpu/gpu_machine.hpp"
#include "sim/memory.hpp"

namespace archgraph::sim {
namespace {

SimThread load_one(Ctx ctx, Addr a) { co_await ctx.load(a); }

SimThread load_rounds(Ctx ctx, Addr a, i64 rounds) {
  for (i64 i = 0; i < rounds; ++i) {
    co_await ctx.load(a);
  }
}

SimThread compute_only(Ctx ctx, i64 slots) { co_await ctx.compute(slots); }

SimThread diverging_lane(Ctx ctx, i64 self, Addr a) {
  // Odd lanes present a load where even lanes present compute: the warp's
  // op streams diverge at every step.
  for (i64 i = 0; i < 8; ++i) {
    if (self % 2 == 0) {
      co_await ctx.compute(3);
    } else {
      co_await ctx.load(a + static_cast<Addr>(self));
    }
  }
}

SimThread producer_lane(Ctx ctx, Addr cell) {
  co_await ctx.compute(50);
  co_await ctx.write_ef(cell, 42);
}

SimThread consumer_lane(Ctx ctx, Addr cell, Addr out) {
  const i64 v = co_await ctx.read_fe(cell);
  co_await ctx.store(out, v);
}

SimThread barrier_then_compute(Ctx ctx, i64 self) {
  co_await ctx.compute(1 + 10 * self);  // ragged arrival
  co_await ctx.barrier();
  co_await ctx.compute(10);
}

TEST(GpuMachine, ConcurrencyIsSmsTimesWarpsTimesLanes) {
  GpuConfig cfg;
  cfg.processors = 3;
  cfg.warps_per_processor = 5;
  cfg.warp_width = 7;
  GpuMachine m{cfg};
  EXPECT_EQ(m.concurrency(), 3 * 5 * 7);
  EXPECT_EQ(m.processors(), 3u);
}

TEST(GpuMachine, ValidateRejectsBadConfigs) {
  auto reject = [](auto mutate) {
    GpuConfig cfg;
    mutate(cfg);
    EXPECT_THROW(validate(cfg), std::logic_error);
  };
  reject([](GpuConfig& c) { c.processors = 0; });
  reject([](GpuConfig& c) { c.warps_per_processor = 0; });
  reject([](GpuConfig& c) { c.warp_width = 0; });
  reject([](GpuConfig& c) { c.memory_latency = 1; });
  reject([](GpuConfig& c) { c.mem_seg_bytes = 0; });
  reject([](GpuConfig& c) { c.mem_seg_bytes = 12; });  // not word-aligned
  reject([](GpuConfig& c) { c.smem_banks = 0; });
  reject([](GpuConfig& c) { c.smem_words = 0; });
  reject([](GpuConfig& c) { c.smem_latency = 0; });
  reject([](GpuConfig& c) { c.region_fork_cycles = -1; });
  reject([](GpuConfig& c) { c.barrier_overhead = -1; });
  reject([](GpuConfig& c) { c.clock_hz = 0; });
  reject([](GpuConfig& c) { c.warp_width = 65; });  // wider than a lane mask
  validate(GpuConfig{});  // the defaults themselves are valid

  GpuConfig widest;
  widest.warp_width = 64;  // the widest real wavefront
  validate(widest);
  widest.warp_width = 65;
  try {
    validate(widest);
    ADD_FAILURE() << "warp_width=65 was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("GpuConfig.warp_width"),
              std::string::npos)
        << e.what();
  }
}

GpuConfig one_warp_config(u32 width) {
  GpuConfig cfg;
  cfg.processors = 1;
  cfg.warps_per_processor = 1;
  cfg.warp_width = width;
  return cfg;
}

TEST(GpuMachine, ConsecutiveLanesCoalesceIntoOneTransaction) {
  // Eight lanes loading eight consecutive words fall in one (or, if the
  // array straddles an alignment boundary, two) 128-byte segments.
  GpuMachine coalesced{one_warp_config(8)};
  SimArray<i64> arr(coalesced.memory(), 256);
  for (u32 t = 0; t < 8; ++t) {
    coalesced.spawn(load_one, arr.addr(t));
  }
  coalesced.run_region();
  EXPECT_LE(coalesced.stats().mem_fills, 2);
  EXPECT_EQ(coalesced.stats().loads, 8);

  // The same eight lanes at a 16-word stride touch eight distinct segments:
  // one serialized transaction each.
  GpuMachine scattered{one_warp_config(8)};
  SimArray<i64> arr2(scattered.memory(), 256);
  for (u32 t = 0; t < 8; ++t) {
    scattered.spawn(load_one, arr2.addr(static_cast<i64>(t) * 16));
  }
  scattered.run_region();
  EXPECT_EQ(scattered.stats().mem_fills, 8);
  EXPECT_GT(scattered.stats().breakdown[CycleCat::kCoalesceWait],
            coalesced.stats().breakdown[CycleCat::kCoalesceWait]);
  EXPECT_GT(scattered.cycles(), coalesced.cycles());
}

TEST(GpuMachine, FetchAddNeverCoalesces) {
  // Atomics serialize one transaction per lane even on consecutive words.
  GpuMachine m{one_warp_config(8)};
  SimArray<i64> arr(m.memory(), 8);
  for (u32 t = 0; t < 8; ++t) {
    m.spawn([](Ctx ctx, Addr a) -> SimThread { co_await ctx.fetch_add(a, 1); },
            arr.addr(t));
  }
  m.run_region();
  EXPECT_EQ(m.stats().mem_fills, 8);
  EXPECT_GT(m.stats().breakdown[CycleCat::kCoalesceWait], 0);
}

TEST(GpuMachine, DivergentBranchesChargeDivergenceSerial) {
  GpuMachine divergent{one_warp_config(4)};
  SimArray<i64> arr(divergent.memory(), 64);
  for (i64 t = 0; t < 4; ++t) {
    divergent.spawn(diverging_lane, t, arr.base());
  }
  divergent.run_region();
  EXPECT_GT(divergent.stats().breakdown[CycleCat::kDivergenceSerial], 0);

  // The convergent control: every lane presents the same op stream.
  GpuMachine convergent{one_warp_config(4)};
  for (i64 t = 0; t < 4; ++t) {
    convergent.spawn(compute_only, i64{24});
  }
  convergent.run_region();
  EXPECT_EQ(convergent.stats().breakdown[CycleCat::kDivergenceSerial], 0);
}

TEST(GpuMachine, ScratchpadBankConflictsSerialize) {
  // Pass 1 fills the scratchpad (global); pass 2 hits it. With 4 banks,
  // lanes at stride 4 all map to one bank and serialize; consecutive lanes
  // spread over all banks conflict-free.
  auto run = [](i64 stride) {
    GpuConfig cfg = one_warp_config(4);
    cfg.smem_banks = 4;
    GpuMachine m{cfg};
    SimArray<i64> arr(m.memory(), 64);
    for (i64 t = 0; t < 4; ++t) {
      m.spawn(load_rounds, arr.addr(t * stride), i64{2});
    }
    m.run_region();
    EXPECT_GE(m.stats().l1_hits, 4);  // the second pass hit the scratchpad
    return m.stats().breakdown[CycleCat::kBankConflict];
  };
  EXPECT_GT(run(4), 0);
  EXPECT_EQ(run(1), 0);
}

TEST(GpuMachine, WarpSchedulingHidesMemoryLatency) {
  // One warp chasing global loads eats the full round trip per load; eight
  // warps interleave on the SM, covering most of it. Eight times the work
  // must cost far less than eight times the cycles.
  auto run = [](u32 warps) {
    GpuConfig cfg;
    cfg.processors = 1;
    cfg.warps_per_processor = 32;
    cfg.warp_width = 4;
    GpuMachine m{cfg};
    SimArray<i64> arr(m.memory(), 4096);
    for (u32 w = 0; w < warps; ++w) {
      for (u32 l = 0; l < 4; ++l) {
        // One distinct segment per lane per round: nothing coalesces, and
        // scratchpad reuse is avoided by giving every round fresh words.
        m.spawn(
            [](Ctx ctx, SimArray<i64> a, i64 base) -> SimThread {
              for (i64 i = 0; i < 8; ++i) {
                co_await ctx.load(a.addr((base + i * 61) % a.size()));
              }
            },
            arr, static_cast<i64>(w * 4 + l) * 16);
      }
    }
    m.run_region();
    return m.cycles();
  };
  const Cycle one = run(1);
  const Cycle eight = run(8);
  EXPECT_LT(eight, 4 * one);
}

TEST(GpuMachine, IntraWarpProducerConsumerDoesNotDeadlock) {
  // The consumer lane parks on the empty tag; lockstep masking must let its
  // warp-mate keep issuing, or the produce never happens.
  GpuMachine m{one_warp_config(2)};
  SimArray<i64> cell(m.memory(), 2);
  m.memory().set_full(cell.addr(0), false);
  m.spawn(consumer_lane, cell.addr(0), cell.addr(1));
  m.spawn(producer_lane, cell.addr(0));
  m.run_region();
  EXPECT_EQ(cell.to_vector()[1], 42);
  EXPECT_GT(m.stats().sync_ops, 0);
}

TEST(GpuMachine, DeadlockIsDetectedNotHung) {
  // A lone read_fe on a word nobody fills parks forever: the region must
  // throw once the event queue runs dry, not spin or return.
  GpuMachine m;
  SimArray<i64> cell(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);  // empty forever
  m.spawn([](Ctx ctx, Addr a) -> SimThread { co_await ctx.read_fe(a); },
          cell.addr(0));
  EXPECT_THROW(m.run_region(), std::logic_error);
}

TEST(GpuMachine, LockstepOccupiesTheWarpForTheSlowestLane) {
  // Two lanes in one warp, one asking 1 ALU slot and one asking 100: the
  // group runs for 100 slots every round.
  GpuMachine m{one_warp_config(2)};
  m.spawn([](Ctx ctx) -> SimThread {
    for (i64 i = 0; i < 10; ++i) co_await ctx.compute(1);
  });
  m.spawn([](Ctx ctx) -> SimThread {
    for (i64 i = 0; i < 10; ++i) co_await ctx.compute(100);
  });
  m.run_region();
  EXPECT_GE(m.cycles(), 10 * 100);
}

TEST(GpuMachine, AdmissionStreamsWarpsThroughResidency) {
  // Six warps over a two-warp residency: warps must stream in as resident
  // warps retire, and every thread still finishes.
  GpuConfig cfg;
  cfg.processors = 1;
  cfg.warps_per_processor = 2;
  cfg.warp_width = 2;
  GpuMachine m{cfg};
  SimArray<i64> arr(m.memory(), 12);
  for (i64 t = 0; t < 12; ++t) {
    m.spawn(
        [](Ctx ctx, Addr a, i64 v) -> SimThread {
          co_await ctx.compute(5);
          co_await ctx.store(a, v);
        },
        arr.addr(t), t + 1);
  }
  m.run_region();
  EXPECT_EQ(m.stats().threads, 12);
  const std::vector<i64> out = arr.to_vector();
  for (i64 t = 0; t < 12; ++t) {
    EXPECT_EQ(out[static_cast<usize>(t)], t + 1);
  }
}

TEST(GpuMachine, BarrierReleasesAllWarps) {
  GpuConfig cfg;
  cfg.processors = 2;
  cfg.warp_width = 4;
  GpuMachine m{cfg};
  for (i64 t = 0; t < 16; ++t) {
    m.spawn(barrier_then_compute, t);
  }
  m.run_region();
  EXPECT_EQ(m.stats().barriers, 1);
  EXPECT_GT(m.stats().breakdown[CycleCat::kBarrier], 0);
}

TEST(GpuMachine, SimulationIsDeterministic) {
  auto run_once = [] {
    GpuConfig cfg;
    cfg.processors = 2;
    cfg.warp_width = 8;
    GpuMachine m{cfg};
    SimArray<i64> arr(m.memory(), 512);
    Prng rng(99);
    std::vector<i64> init(512);
    for (auto& v : init) v = static_cast<i64>(rng.below(512));
    arr.assign(init);
    for (i64 t = 0; t < 48; ++t) {
      m.spawn(diverging_lane, t, arr.base());
      m.spawn(barrier_then_compute, t);
    }
    m.run_region();
    return std::pair{m.cycles(), m.stats().breakdown};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(GpuMachine, UtilizationIsWarpGranularAndBounded) {
  // A convergent compute-saturated machine approaches utilization 1 and
  // never exceeds it (instructions are counted per warp-instruction, not
  // per lane).
  GpuConfig cfg;
  cfg.processors = 1;
  cfg.warps_per_processor = 4;
  cfg.warp_width = 8;
  GpuMachine m{cfg};
  for (i64 t = 0; t < 32; ++t) {
    m.spawn(compute_only, i64{1000});
  }
  m.run_region();
  EXPECT_LE(m.utilization(), 1.0);
  EXPECT_GT(m.utilization(), 0.5);
}

}  // namespace
}  // namespace archgraph::sim
