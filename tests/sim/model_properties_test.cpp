// Property tests pinning the machine models' qualitative physics: the
// directions the paper's architectural arguments depend on. Each property is
// phrased as a monotonicity or scaling law so a future model change that
// breaks an argument breaks a test.
#include <gtest/gtest.h>

#include "core/kernels/kernels.hpp"
#include "graph/linked_list.hpp"
#include "sim/machine_spec.hpp"
#include "sim/memory.hpp"
#include "sim/mta/mta_machine.hpp"
#include "sim/smp/smp_machine.hpp"

namespace archgraph::sim {
namespace {

Cycle mta_lr_cycles(MtaConfig cfg, const graph::LinkedList& list) {
  MtaMachine m(cfg);
  core::sim_rank_list_walk(m, list);
  return m.cycles();
}

Cycle smp_lr_cycles(SmpConfig cfg, const graph::LinkedList& list) {
  SmpMachine m(cfg);
  core::sim_rank_list_hj(m, list);
  return m.cycles();
}

TEST(ModelProperties, MtaCyclesNonincreasingInStreams) {
  const auto list = graph::random_list(1 << 14, 1);
  Cycle previous = 0;
  for (const u32 streams : {2u, 8u, 32u, 128u}) {
    MtaConfig cfg = parse_machine_spec("mta:procs=1").mta;
    cfg.streams_per_processor = streams;
    const Cycle c = mta_lr_cycles(cfg, list);
    if (previous != 0) {
      EXPECT_LE(c, previous) << streams << " streams";
    }
    previous = c;
  }
}

TEST(ModelProperties, MtaCyclesIncreasingInLatencyAtLowParallelism) {
  const auto list = graph::random_list(1 << 13, 2);
  Cycle previous = 0;
  for (const Cycle latency : {50, 100, 200, 400}) {
    MtaConfig cfg = parse_machine_spec("mta:procs=1").mta;
    cfg.streams_per_processor = 4;  // too few to hide anything
    cfg.memory_latency = latency;
    const Cycle c = mta_lr_cycles(cfg, list);
    EXPECT_GT(c, previous);
    previous = c;
  }
}

TEST(ModelProperties, MtaTimeRoughlyLinearInProblemSize) {
  MtaConfig cfg = parse_machine_spec("mta:procs=1").mta;
  const Cycle small = mta_lr_cycles(cfg, graph::random_list(1 << 14, 3));
  const Cycle large = mta_lr_cycles(cfg, graph::random_list(1 << 17, 3));
  const double ratio = static_cast<double>(large) / static_cast<double>(small);
  EXPECT_GT(ratio, 5.0);   // 8x data, allow sublinearity from fixed costs
  EXPECT_LT(ratio, 11.0);  // and mild superlinearity from the doubling step
}

TEST(ModelProperties, SmpCyclesNonincreasingInL2Size) {
  const auto list = graph::random_list(1 << 15, 4);
  Cycle previous = 0;
  for (const u64 l2 : {128u * 1024, 512u * 1024, 2048u * 1024,
                       8192u * 1024}) {
    SmpConfig cfg = parse_machine_spec("smp:procs=1").smp;
    cfg.l2_bytes = l2;
    const Cycle c = smp_lr_cycles(cfg, list);
    if (previous != 0) {
      EXPECT_LE(c, previous) << l2 << " bytes";
    }
    previous = c;
  }
}

TEST(ModelProperties, SmpCyclesIncreasingInMemoryLatency) {
  const auto list = graph::random_list(1 << 14, 5);
  Cycle previous = 0;
  for (const Cycle latency : {60, 120, 240, 480}) {
    SmpConfig cfg = parse_machine_spec("smp:procs=1").smp;
    cfg.l2_bytes = 128 * 1024;  // force misses
    cfg.memory_latency = latency;
    const Cycle c = smp_lr_cycles(cfg, list);
    EXPECT_GT(c, previous);
    previous = c;
  }
}

TEST(ModelProperties, SmpBiggerLinesHelpOrderedNotRandom) {
  SmpConfig narrow = parse_machine_spec("smp:procs=1").smp;
  narrow.l2_bytes = 256 * 1024;
  narrow.line_bytes = 32;
  SmpConfig wide = narrow;
  wide.line_bytes = 128;

  const auto ordered = graph::ordered_list(1 << 15);
  const auto random_l = graph::random_list(1 << 15, 6);
  const double ordered_gain =
      static_cast<double>(smp_lr_cycles(narrow, ordered)) /
      static_cast<double>(smp_lr_cycles(wide, ordered));
  const double random_gain =
      static_cast<double>(smp_lr_cycles(narrow, random_l)) /
      static_cast<double>(smp_lr_cycles(wide, random_l));
  EXPECT_GT(ordered_gain, 1.5);             // lines amortize streams
  EXPECT_LT(random_gain, ordered_gain * 0.7);  // but not pointer chasing
}

/// Store-heavy vs load-heavy kernels: the SMP's store buffer must make a
/// missing store far cheaper than a missing load.
SimThread store_sweep(Ctx ctx, SimArray<i64> data, i64 stride) {
  for (i64 i = 0; i < data.size(); i += stride) {
    co_await ctx.store(data.addr(i), i);
  }
}

SimThread load_sweep(Ctx ctx, SimArray<i64> data, i64 stride, Addr out) {
  i64 sum = 0;
  for (i64 i = 0; i < data.size(); i += stride) {
    sum += co_await ctx.load(data.addr(i));
  }
  co_await ctx.store(out, sum);
}

TEST(ModelProperties, SmpStoreBufferHidesStoreMisses) {
  constexpr i64 kN = 1 << 15;
  constexpr i64 kStride = 8;  // one access per line: every access misses
  SmpMachine store_m;
  {
    SimArray<i64> data(store_m.memory(), kN);
    store_m.spawn(store_sweep, data, kStride);
    store_m.run_region();
  }
  SmpMachine load_m;
  {
    SimArray<i64> data(load_m.memory(), kN);
    SimArray<i64> out(load_m.memory(), 1);
    load_m.spawn(load_sweep, data, kStride, out.addr(0));
    load_m.run_region();
  }
  EXPECT_LT(static_cast<double>(store_m.cycles()),
            0.25 * static_cast<double>(load_m.cycles()));
}

TEST(ModelProperties, SmpCachesStayWarmAcrossRegions) {
  SmpMachine m;
  SimArray<i64> data(m.memory(), 4096);
  SimArray<i64> out(m.memory(), 1);
  m.spawn(load_sweep, data, i64{1}, out.addr(0));
  m.run_region();
  const Cycle cold = m.region_log()[0].cycles;
  m.spawn(load_sweep, data, i64{1}, out.addr(0));
  m.run_region();
  const Cycle warm = m.region_log()[1].cycles;
  EXPECT_LT(warm * 2, cold);
}

TEST(ModelProperties, MtaLayoutInsensitiveSmpLayoutSensitive) {
  // The paper's central contrast, pinned as a property with fresh inputs.
  const auto ordered = graph::ordered_list(1 << 15);
  const auto random_l = graph::random_list(1 << 15, 7);

  const MtaConfig mta = parse_machine_spec("mta:procs=1").mta;
  const double mta_ratio =
      static_cast<double>(mta_lr_cycles(mta, random_l)) /
      static_cast<double>(mta_lr_cycles(mta, ordered));
  EXPECT_LT(mta_ratio, 1.25);

  SmpConfig cfg = parse_machine_spec("smp:procs=1").smp;
  cfg.l2_bytes = 256 * 1024;
  const double smp_ratio = static_cast<double>(smp_lr_cycles(cfg, random_l)) /
                           static_cast<double>(smp_lr_cycles(cfg, ordered));
  EXPECT_GT(smp_ratio, 2.0);
}

TEST(ModelProperties, FasterClockMeansFewerSecondsSameCycles) {
  const auto list = graph::random_list(4096, 8);
  MtaConfig slow = parse_machine_spec("mta:procs=1").mta;
  MtaConfig fast = slow;
  fast.clock_hz = 2 * slow.clock_hz;
  MtaMachine slow_m(slow), fast_m(fast);
  core::sim_rank_list_walk(slow_m, list);
  core::sim_rank_list_walk(fast_m, list);
  EXPECT_EQ(slow_m.cycles(), fast_m.cycles());
  EXPECT_NEAR(slow_m.seconds(), 2 * fast_m.seconds(), 1e-12);
}

}  // namespace
}  // namespace archgraph::sim
