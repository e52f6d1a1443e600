#include "sim/mta/mta_machine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/memory.hpp"

namespace archgraph::sim {
namespace {

SimThread add_one(Ctx ctx, Addr a) {
  const i64 v = co_await ctx.load(a);
  co_await ctx.compute(1);
  co_await ctx.store(a, v + 1);
}

TEST(MtaMachine, RunsASingleThreadToCompletion) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  cell.set(0, 41);
  m.spawn(add_one, cell.addr(0));
  m.run_region();
  EXPECT_EQ(cell.get(0), 42);
  EXPECT_GT(m.cycles(), 0);
  EXPECT_EQ(m.stats().instructions, 3);
  EXPECT_EQ(m.stats().loads, 1);
  EXPECT_EQ(m.stats().stores, 1);
}

SimThread fetch_add_n(Ctx ctx, Addr a, i64 times) {
  for (i64 i = 0; i < times; ++i) {
    co_await ctx.fetch_add(a, 1);
  }
}

TEST(MtaMachine, FetchAddIsAtomicUnderContention) {
  MtaMachine m;
  SimArray<i64> counter(m.memory(), 1);
  constexpr i64 kThreads = 200;
  constexpr i64 kEach = 25;
  for (i64 t = 0; t < kThreads; ++t) {
    m.spawn(fetch_add_n, counter.addr(0), kEach);
  }
  m.run_region();
  EXPECT_EQ(counter.get(0), kThreads * kEach);
}

SimThread claim_distinct(Ctx ctx, Addr counter, SimArray<i64> claims) {
  while (true) {
    const i64 ticket = co_await ctx.fetch_add(counter, 1);
    if (ticket >= claims.size()) break;
    co_await ctx.store(claims.addr(ticket), static_cast<i64>(ctx.thread_id()));
  }
}

TEST(MtaMachine, FetchAddTicketsAreDistinct) {
  MtaMachine m;
  SimArray<i64> counter(m.memory(), 1);
  SimArray<i64> claims(m.memory(), 500);
  claims.fill(-1);
  for (i64 t = 0; t < 64; ++t) {
    m.spawn(claim_distinct, counter.addr(0), claims);
  }
  m.run_region();
  // Every slot claimed exactly once (no slot left at -1).
  for (i64 i = 0; i < claims.size(); ++i) {
    EXPECT_GE(claims.get(i), 0) << "slot " << i;
  }
}

TEST(MtaMachine, MoreProcessorsReduceCycles) {
  auto run = [](u32 procs) {
    MtaConfig cfg;
    cfg.processors = procs;
    MtaMachine m(cfg);
    SimArray<i64> data(m.memory(), 4096);
    for (i64 t = 0; t < 512; ++t) {
      m.spawn(fetch_add_n, data.addr(t % data.size()), 20);
    }
    m.run_region();
    return m.cycles();
  };
  const Cycle c1 = run(1);
  const Cycle c4 = run(4);
  const Cycle c8 = run(8);
  EXPECT_LT(c4, c1);
  EXPECT_LT(c8, c4);
  // Near-linear: 4 processors at least 2.5x faster.
  EXPECT_LT(static_cast<double>(c4), static_cast<double>(c1) / 2.5);
}

SimThread long_compute(Ctx ctx, i64 slots) { co_await ctx.compute(slots); }

TEST(MtaMachine, UtilizationHighWithManyThreadsLowWithOne) {
  // One memory-bound thread cannot hide latency: utilization collapses.
  MtaMachine lonely;
  SimArray<i64> cell(lonely.memory(), 1);
  lonely.spawn(fetch_add_n, cell.addr(0), 500);
  lonely.run_region();
  EXPECT_LT(lonely.utilization(), 0.05);

  // Hundreds of threads keep the processor issuing nearly every cycle.
  MtaMachine busy;
  SimArray<i64> data(busy.memory(), 4096);
  for (i64 t = 0; t < 256; ++t) {
    busy.spawn(fetch_add_n, data.addr(t * 16 % data.size()), 200);
  }
  busy.run_region();
  EXPECT_GT(busy.utilization(), 0.85);
}

TEST(MtaMachine, UtilizationNeverExceedsOne) {
  MtaMachine m;
  for (i64 t = 0; t < 300; ++t) {
    m.spawn(long_compute, i64{1000});
  }
  m.run_region();
  EXPECT_LE(m.utilization(), 1.0);
  EXPECT_GT(m.utilization(), 0.5);
}

SimThread producer(Ctx ctx, Addr a, i64 value) {
  co_await ctx.compute(200);  // arrive late on purpose
  co_await ctx.write_ef(a, value);
}

SimThread consumer(Ctx ctx, Addr a, Addr out) {
  const i64 v = co_await ctx.read_fe(a);
  co_await ctx.store(out, v);
}

TEST(MtaMachine, FullEmptyBitsSynchronize) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  SimArray<i64> out(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);  // start empty
  m.spawn(consumer, cell.addr(0), out.addr(0));
  m.spawn(producer, cell.addr(0), i64{123});
  m.run_region();
  EXPECT_EQ(out.get(0), 123);
  EXPECT_FALSE(m.memory().full(cell.addr(0)));  // readfe consumed it
  EXPECT_GT(m.stats().sync_ops, 0);
}

SimThread pingpong_producer(Ctx ctx, Addr a, i64 rounds) {
  for (i64 i = 0; i < rounds; ++i) {
    co_await ctx.write_ef(a, i);
  }
}

SimThread pingpong_consumer(Ctx ctx, Addr a, Addr sum, i64 rounds) {
  i64 total = 0;
  for (i64 i = 0; i < rounds; ++i) {
    total += co_await ctx.read_fe(a);
  }
  co_await ctx.store(sum, total);
}

TEST(MtaMachine, FullEmptyPingPongTransfersEveryValue) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  SimArray<i64> sum(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);
  constexpr i64 kRounds = 50;
  m.spawn(pingpong_consumer, cell.addr(0), sum.addr(0), kRounds);
  m.spawn(pingpong_producer, cell.addr(0), kRounds);
  m.run_region();
  EXPECT_EQ(sum.get(0), kRounds * (kRounds - 1) / 2);
}

SimThread deadlocked_reader(Ctx ctx, Addr a) { co_await ctx.read_fe(a); }

TEST(MtaMachine, DeadlockIsDetectedNotHung) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);  // empty forever
  m.spawn(deadlocked_reader, cell.addr(0));
  EXPECT_THROW(m.run_region(), std::logic_error);
}

SimThread barrier_phase(Ctx ctx, SimArray<i64> flags, i64 self, Addr errors) {
  co_await ctx.store(flags.addr(self), 1);
  co_await ctx.barrier();
  // After the barrier every flag must be set.
  for (i64 i = 0; i < flags.size(); ++i) {
    const i64 f = co_await ctx.load(flags.addr(i));
    if (f != 1) {
      co_await ctx.fetch_add(errors, 1);
    }
  }
}

TEST(MtaMachine, BarrierSeparatesPhases) {
  MtaMachine m;
  constexpr i64 kThreads = 60;
  SimArray<i64> flags(m.memory(), kThreads);
  flags.fill(0);
  SimArray<i64> errors(m.memory(), 1);
  for (i64 t = 0; t < kThreads; ++t) {
    m.spawn(barrier_phase, flags, t, errors.addr(0));
  }
  m.run_region();
  EXPECT_EQ(errors.get(0), 0);
  EXPECT_EQ(m.stats().barriers, 1);
}

SimThread kernel_that_throws(Ctx ctx) {
  co_await ctx.compute(1);
  throw std::runtime_error("inner kernel error");
}

TEST(MtaMachine, KernelExceptionsPropagateFromRunRegion) {
  MtaMachine m;
  m.spawn(kernel_that_throws);
  EXPECT_THROW(m.run_region(), std::runtime_error);
}

TEST(MtaMachine, ThreadsBeyondStreamCapacityStillComplete) {
  MtaConfig cfg;
  cfg.streams_per_processor = 4;  // tiny stream count
  MtaMachine m(cfg);
  SimArray<i64> counter(m.memory(), 1);
  for (i64 t = 0; t < 100; ++t) {
    m.spawn(fetch_add_n, counter.addr(0), 3);
  }
  m.run_region();
  EXPECT_EQ(counter.get(0), 300);
}

/// Two computes on one thread, then a fetch-add on `word` whose old value
/// lands in out[0]; out[1] gets a ticket from `order` taken right after, so
/// the tickets give the order in which the fetch-adds completed.
SimThread split_then_add(Ctx ctx, i64 first, i64 second, Addr word,
                         Addr order, SimArray<i64> out) {
  co_await ctx.compute(first);
  if (second > 0) {
    co_await ctx.compute(second);
  }
  out.set(0, co_await ctx.fetch_add(word, 1));
  out.set(1, co_await ctx.fetch_add(order, 1));
}

TEST(MtaMachine, SameCycleRequestsReachTheBanksInProcessorOrder) {
  // Thread 0 runs on processor 0 (compute 1 then 4), thread 1 on processor 1
  // (compute 5): both become ready at fork + 5, and both fetch-adds reach
  // the word's bank in the same cycle. Processor 1's completion is queued
  // first, so event order alone would hand it the bank; the tie rule
  // (every event of the cycle first, then issue in processor order) gives
  // the bank to processor 0, whose fetch-add also completes first.
  MtaConfig cfg;
  cfg.processors = 2;
  MtaMachine m(cfg);
  SimArray<i64> word(m.memory(), 2);
  SimArray<i64> out0(m.memory(), 2);
  SimArray<i64> out1(m.memory(), 2);
  m.spawn(split_then_add, 1, 4, word.addr(0), word.addr(1), out0);
  m.spawn(split_then_add, 5, 0, word.addr(0), word.addr(1), out1);
  m.run_region();
  EXPECT_EQ(out0.get(0), 0);  // processor 0 got the old value
  EXPECT_EQ(out1.get(0), 1);
  EXPECT_EQ(out0.get(1), 0);  // ...and its fetch-add completed first
  EXPECT_EQ(out1.get(1), 1);
  EXPECT_EQ(word.get(0), 2);
}

TEST(MtaMachine, DeterministicAcrossRuns) {
  auto run = [] {
    MtaMachine m;
    SimArray<i64> data(m.memory(), 512);
    for (i64 t = 0; t < 100; ++t) {
      m.spawn(fetch_add_n, data.addr((t * 37) % 512), 10);
    }
    m.run_region();
    return m.cycles();
  };
  EXPECT_EQ(run(), run());
}

TEST(MtaMachine, CyclesAccumulateAcrossRegions) {
  MtaMachine m;
  SimArray<i64> cell(m.memory(), 1);
  m.spawn(add_one, cell.addr(0));
  m.run_region();
  const Cycle after_first = m.cycles();
  m.spawn(add_one, cell.addr(0));
  m.run_region();
  EXPECT_GT(m.cycles(), after_first);
  EXPECT_EQ(m.stats().regions, 2);
  EXPECT_EQ(cell.get(0), 2);
}

TEST(MtaMachine, NonFlatMemoryPenaltyIsAbsorbedByParallelism) {
  // The §6 next-gen question: remote banks cost +200 cycles round trip.
  // With one thread per processor the penalty lands nearly in full; with
  // enough threads AND enough streams to cover the larger latency, it is
  // hidden. (Hiding budget = streams * g / (g + L) — the paper's own
  // utilization arithmetic.)
  auto run = [](Cycle extra, i64 threads, u32 streams) {
    MtaConfig cfg;
    cfg.processors = 4;
    cfg.nonuniform_extra = extra;
    cfg.streams_per_processor = streams;
    MtaMachine m(cfg);
    SimArray<i64> data(m.memory(), 8192);
    for (i64 t = 0; t < threads; ++t) {
      m.spawn(fetch_add_n, data.addr((t * 61) % data.size()), 50);
    }
    m.run_region();
    return m.cycles();
  };
  // Flat memory is the default and never slower.
  EXPECT_LE(run(0, 16, 128), run(200, 16, 128));
  // Few threads: penalty in (nearly) full — ~75% of accesses remote at p=4.
  const double few_ratio = static_cast<double>(run(200, 4, 128)) /
                           static_cast<double>(run(0, 4, 128));
  EXPECT_GT(few_ratio, 1.8);
  // Ample threads and streams: mostly hidden.
  const double many_ratio = static_cast<double>(run(200, 2048, 512)) /
                            static_cast<double>(run(0, 2048, 512));
  EXPECT_LT(many_ratio, 1.4);
  EXPECT_LT(many_ratio, few_ratio);
}

TEST(MtaMachine, HotspotSerializesSharedCell) {
  // All threads hammer ONE word vs. spreading over many words: the single
  // bank serializes the former (the paper's hotspot remark). A single
  // processor is itself limited to one issue per cycle, so the effect only
  // shows with several processors.
  auto run = [](bool hotspot) {
    MtaConfig cfg;
    cfg.processors = 8;
    MtaMachine m(cfg);
    SimArray<i64> data(m.memory(), 65536);
    for (i64 t = 0; t < 1024; ++t) {
      m.spawn(fetch_add_n, data.addr(hotspot ? 0 : (t * 64)), 64);
    }
    m.run_region();
    return m.cycles();
  };
  EXPECT_GT(run(true), 2 * run(false));
}

}  // namespace
}  // namespace archgraph::sim
