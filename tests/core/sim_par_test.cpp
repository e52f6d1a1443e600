// The parallel-loop vocabulary: static_block partitioning edge cases,
// auto_workers clamping, the claim / Items awaitables, and the loop shapes
// kernels write with them executing real simulated work.
#include "core/kernels/sim_par.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "sim/machine_spec.hpp"
#include "sim/memory.hpp"

namespace archgraph::core {
namespace {

using sim::Ctx;
using sim::SimArray;
using sim::SimThread;

TEST(StaticBlock, WorkersPartitionTheRangeExactly) {
  for (const i64 n : {0, 1, 5, 7, 64, 1000}) {
    for (const i64 workers : {1, 2, 3, 8, 64}) {
      i64 expected_lo = 0;
      for (i64 w = 0; w < workers; ++w) {
        const simk::Range r = simk::static_block(n, w, workers);
        EXPECT_EQ(r.lo, expected_lo) << "n=" << n << " w=" << w;
        EXPECT_LE(r.lo, r.hi);
        // Block sizes differ by at most one, larger blocks first.
        const i64 size = r.hi - r.lo;
        EXPECT_GE(size, n / workers);
        EXPECT_LE(size, n / workers + 1);
        expected_lo = r.hi;
      }
      EXPECT_EQ(expected_lo, n) << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(StaticBlock, EmptyRangeGivesEveryWorkerAnEmptyBlock) {
  for (i64 w = 0; w < 4; ++w) {
    const simk::Range r = simk::static_block(0, w, 4);
    EXPECT_EQ(r.lo, r.hi);
  }
}

TEST(StaticBlock, FewerItemsThanWorkers) {
  // n = 3, workers = 5: the first three workers get one element each, the
  // rest run empty blocks (lo == hi) — no worker may be skipped or doubled.
  std::vector<i64> covered;
  for (i64 w = 0; w < 5; ++w) {
    const simk::Range r = simk::static_block(3, w, 5);
    for (i64 i = r.lo; i < r.hi; ++i) covered.push_back(i);
    EXPECT_LE(r.hi - r.lo, 1);
  }
  EXPECT_EQ(covered, (std::vector<i64>{0, 1, 2}));
}

TEST(StaticBlock, SingleWorkerOwnsEverything) {
  const simk::Range r = simk::static_block(1234, 0, 1);
  EXPECT_EQ(r.lo, 0);
  EXPECT_EQ(r.hi, 1234);
}

TEST(AutoWorkers, DefaultsToHardwareConcurrencyCappedByItems) {
  const auto m = sim::make_machine("mta:procs=1,streams=8");  // concurrency 8
  EXPECT_EQ(simk::auto_workers(*m, 1000, 0), 8);
  EXPECT_EQ(simk::auto_workers(*m, 3, 0), 3);   // fewer items than slots
  EXPECT_EQ(simk::auto_workers(*m, 0, 0), 1);   // never zero workers
  EXPECT_EQ(simk::auto_workers(*m, 1000, -1), 8);
}

TEST(AutoWorkers, ClampsExplicitRequestsToTheMachine) {
  const auto m = sim::make_machine("mta:procs=1,streams=8");
  EXPECT_EQ(simk::auto_workers(*m, 1000, 4), 4);    // honored when it fits
  EXPECT_EQ(simk::auto_workers(*m, 1000, 500), 8);  // clamped to concurrency
  EXPECT_EQ(simk::auto_workers(*m, 2, 500), 2);     // and to the item count
}

TEST(ScheduleName, NamesBothSchedules) {
  EXPECT_STREQ(simk::schedule_name(simk::Schedule::kDynamic), "dynamic");
  EXPECT_STREQ(simk::schedule_name(simk::Schedule::kStatic), "static");
}

TEST(Claim, RangeIsClippedAndEmptyPastTheEnd) {
  // The awaitable's resume side, driven by hand: the machine's fetch_add
  // result is the old counter value.
  sim::ThreadState ts;
  const simk::ClaimAwaiter claim = simk::claim(Ctx{&ts}, 64, 100, 8);
  // claim() publishes its fetch_add in `pending` when it is called.
  EXPECT_EQ(ts.pending.kind, sim::OpKind::kFetchAdd);
  EXPECT_EQ(ts.pending.addr, 64u);
  EXPECT_EQ(ts.pending.value, 8);
  ts.pending.result = 0;
  EXPECT_EQ(claim.await_resume().lo, 0);
  EXPECT_EQ(claim.await_resume().hi, 8);
  ts.pending.result = 96;  // the last chunk is clipped to n
  EXPECT_EQ(claim.await_resume().hi, 100);
  EXPECT_FALSE(claim.await_resume().empty());
  for (const i64 old : {100, 104, 1000}) {
    ts.pending.result = old;
    EXPECT_TRUE(claim.await_resume().empty()) << old;
  }
}

SimThread fill_dynamic_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                              SimArray<i64> counter, SimArray<i64> out,
                              i64 chunk) {
  while (true) {
    const simk::Range r =
        co_await simk::claim(ctx, counter.addr(0), out.size(), chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
      co_await ctx.store(out.addr(i), 2 * i + 1);
    }
  }
}

TEST(ForDynamic, ChunkClaimingCoversEveryIndexOnce) {
  for (const i64 chunk : {1, 3, 64, 1000}) {
    const auto m = sim::make_machine("mta");
    SimArray<i64> counter(m->memory(), 1);
    SimArray<i64> out(m->memory(), 100);
    simk::spawn_workers(*m, 4, fill_dynamic_kernel, counter, out, chunk);
    m->run_region();
    for (i64 i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.get(i), 2 * i + 1) << "chunk=" << chunk << " i=" << i;
    }
    // One claim per chunk plus each worker's final failed claim.
    const i64 claims = (100 + chunk - 1) / chunk + 4;
    EXPECT_EQ(counter.get(0), claims * chunk) << "chunk=" << chunk;
  }
}

SimThread phase_kernel(Ctx ctx, i64 worker, i64 workers, SimArray<i64> a,
                       SimArray<i64> b) {
  // Phase 1: a[i] = i, all workers; barrier; phase 2: b[i] = a[n-1-i].
  const i64 n = a.size();
  const simk::Range r = simk::static_block(n, worker, workers);
  for (i64 i = r.lo; i < r.hi; ++i) co_await ctx.store(a.addr(i), i);
  co_await ctx.barrier();
  for (i64 i = r.lo; i < r.hi; ++i) {
    const i64 v = co_await ctx.load(a.addr(n - 1 - i));
    co_await ctx.store(b.addr(i), v);
  }
}

TEST(ForStatic, BarrierSeparatedPhasesSeeEachOthersWrites) {
  // Works with empty blocks too: 7 elements across 4 workers.
  const auto m = sim::make_machine("smp:procs=4");
  SimArray<i64> a(m->memory(), 7);
  SimArray<i64> b(m->memory(), 7);
  simk::spawn_workers(*m, 4, phase_kernel, a, b);
  m->run_region();
  for (i64 i = 0; i < 7; ++i) {
    EXPECT_EQ(b.get(i), 7 - 1 - i);
  }
}

SimThread for_each_kernel(Ctx ctx, i64 worker, i64 workers,
                          simk::Schedule schedule, SimArray<i64> counter,
                          SimArray<i64> out) {
  simk::Items items(schedule, counter.addr(0), worker, workers, out.size());
  while (true) {
    const i64 i = co_await items.next(ctx);
    if (i < 0) break;
    co_await ctx.store(out.addr(i), i * i);
  }
}

TEST(ForEach, BothSchedulesComputeTheSameResult) {
  for (const simk::Schedule schedule :
       {simk::Schedule::kDynamic, simk::Schedule::kStatic}) {
    const auto m = sim::make_machine("mta");
    SimArray<i64> counter(m->memory(), 1);
    SimArray<i64> out(m->memory(), 33);
    simk::spawn_workers(*m, 8, for_each_kernel, schedule, counter, out);
    m->run_region();
    for (i64 i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.get(i), i * i) << simk::schedule_name(schedule);
    }
    // Claiming cost: dynamic is one fetch_add per item plus each worker's
    // final failed claim; static is one compute slot per item and leaves
    // the counter alone. Either way 33 stores + 41 or 33 claim slots.
    const bool dynamic = schedule == simk::Schedule::kDynamic;
    EXPECT_EQ(counter.get(0), dynamic ? 33 + 8 : 0);
    EXPECT_EQ(m->stats().instructions, 33 + (dynamic ? 33 + 8 : 33));
  }
}

TEST(ForEach, StaticLoopIssuesNoPhantomOp) {
  // Driven by hand: a static block of 2 items issues compute (the local
  // claim) and store per item, then the exhausted claim skips its
  // suspension and publishes nothing, so the thread's next op is kDone.
  sim::ThreadState ts;
  sim::SimMemory mem;
  SimArray<i64> counter(mem, 1);
  SimArray<i64> out(mem, 4);
  SimThread t = for_each_kernel(Ctx{&ts}, 1, 2, simk::Schedule::kStatic,
                                counter, out);
  ts.handle = t.bind(&ts);
  const std::vector<std::pair<sim::OpKind, i64>> expected{
      {sim::OpKind::kCompute, 1}, {sim::OpKind::kStore, 4},
      {sim::OpKind::kCompute, 1}, {sim::OpKind::kStore, 9},
      {sim::OpKind::kDone, 0}};
  for (const auto& [kind, value] : expected) {
    ts.advance();
    ASSERT_EQ(ts.pending.kind, kind);
    EXPECT_EQ(ts.pending.value, value);
  }
  ts.handle.destroy();

  // An exhausted Items publishes nothing: `pending` keeps its last op.
  simk::Items empty(simk::Schedule::kStatic, counter.addr(0), 3, 4, 2);
  ts.pending = sim::Operation{.kind = sim::OpKind::kLoad, .addr = 7};
  EXPECT_TRUE(empty.next(Ctx{&ts}).await_ready());
  EXPECT_EQ(ts.pending.kind, sim::OpKind::kLoad);
  EXPECT_EQ(ts.pending.addr, 7u);
}

TEST(ForEach, StaticLoopIssuesExactlyTwoInstructionsPerItem) {
  // More workers than items: the empty blocks issue nothing at all. (The
  // GPU counts warp-instructions, so its total is not per thread.)
  for (const char* machine : {"mta", "smp:procs=2"}) {
    const auto m = sim::make_machine(machine);
    SimArray<i64> counter(m->memory(), 1);
    SimArray<i64> out(m->memory(), 3);
    simk::spawn_workers(*m, 5, for_each_kernel, simk::Schedule::kStatic,
                        counter, out);
    m->run_region();
    EXPECT_EQ(m->stats().instructions, 3 + 3) << machine;
    EXPECT_EQ(m->stats().stores, 3) << machine;
    for (i64 i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.get(i), i * i) << machine;
    }
  }
}

SimThread reduce_kernel(Ctx ctx, i64 worker, i64 workers, SimArray<i64> arr,
                        SimArray<i64> acc) {
  const simk::Range r = simk::static_block(arr.size(), worker, workers);
  i64 local = 0;
  for (i64 i = r.lo; i < r.hi; ++i) {
    local += co_await ctx.load(arr.addr(i));
  }
  co_await ctx.fetch_add(acc.addr(0), local);
}

TEST(ReduceSum, PartialsCombineIntoTheSharedAccumulator) {
  const auto m = sim::make_machine("mta");
  SimArray<i64> arr(m->memory(), 101);
  std::vector<i64> values(101);
  std::iota(values.begin(), values.end(), -50);  // sums to 0 + 50 = 50
  arr.assign(values);
  SimArray<i64> acc(m->memory(), 1);
  acc.set(0, 0);
  simk::spawn_workers(*m, 4, reduce_kernel, arr, acc);
  m->run_region();
  EXPECT_EQ(acc.get(0), std::accumulate(values.begin(), values.end(), i64{0}));
}

}  // namespace
}  // namespace archgraph::core
