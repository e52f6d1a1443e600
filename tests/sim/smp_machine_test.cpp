#include "sim/smp/smp_machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/memory.hpp"

namespace archgraph::sim {
namespace {

SimThread add_one(Ctx ctx, Addr a) {
  const i64 v = co_await ctx.load(a);
  co_await ctx.compute(1);
  co_await ctx.store(a, v + 1);
}

TEST(SmpMachine, RunsAndComputes) {
  SmpMachine m;
  SimArray<i64> cell(m.memory(), 1);
  cell.set(0, 9);
  m.spawn(add_one, cell.addr(0));
  m.run_region();
  EXPECT_EQ(cell.get(0), 10);
  EXPECT_GT(m.cycles(), 0);
}

SimThread scan_array(Ctx ctx, SimArray<i64> data, Addr out) {
  i64 sum = 0;
  for (i64 i = 0; i < data.size(); ++i) {
    sum += co_await ctx.load(data.addr(i));
    co_await ctx.compute(1);
  }
  co_await ctx.store(out, sum);
}

SimThread stride_array(Ctx ctx, SimArray<i64> data, i64 stride, Addr out) {
  // Touch the same number of elements as a full scan of size/stride.
  i64 sum = 0;
  const i64 count = data.size() / stride;
  for (i64 k = 0; k < count; ++k) {
    sum += co_await ctx.load(data.addr((k * stride) % data.size()));
    co_await ctx.compute(1);
  }
  co_await ctx.store(out, sum);
}

TEST(SmpMachine, SequentialScanBeatsStridedScanPerElement) {
  // Sequential access amortizes each line fill over 8 words; a stride that
  // skips whole lines misses every time. Same element count each way.
  SmpMachine seq_m;
  SimArray<i64> seq_data(seq_m.memory(), 8192);
  SimArray<i64> seq_out(seq_m.memory(), 1);
  seq_m.spawn(scan_array, seq_data, seq_out.addr(0));
  seq_m.run_region();
  const double seq_per_elem = static_cast<double>(seq_m.cycles()) / 8192;

  SmpMachine str_m;
  SimArray<i64> str_data(str_m.memory(), 65536);
  SimArray<i64> str_out(str_m.memory(), 1);
  str_m.spawn(stride_array, str_data, i64{8}, str_out.addr(0));
  str_m.run_region();
  const double str_per_elem = static_cast<double>(str_m.cycles()) / 8192;

  EXPECT_GT(str_per_elem, 3.0 * seq_per_elem);
}

TEST(SmpMachine, RepeatedScanHitsInCache) {
  // Second scan of an L1/L2-resident array must be much faster.
  SmpMachine m;
  SimArray<i64> data(m.memory(), 1024);
  SimArray<i64> out(m.memory(), 1);
  m.spawn(scan_array, data, out.addr(0));
  m.run_region();
  const Cycle cold = m.cycles();
  m.spawn(scan_array, data, out.addr(0));
  m.run_region();
  const Cycle warm = m.cycles() - cold;
  EXPECT_LT(warm * 3, cold);
  EXPECT_GT(m.stats().l1_hits, 0);
}

SimThread fetch_add_n(Ctx ctx, Addr a, i64 times) {
  for (i64 i = 0; i < times; ++i) {
    co_await ctx.fetch_add(a, 1);
  }
}

TEST(SmpMachine, FetchAddIsAtomicAcrossProcessors) {
  SmpConfig cfg;
  cfg.processors = 4;
  SmpMachine m(cfg);
  SimArray<i64> counter(m.memory(), 1);
  for (i64 t = 0; t < 4; ++t) {
    m.spawn(fetch_add_n, counter.addr(0), 100);
  }
  m.run_region();
  EXPECT_EQ(counter.get(0), 400);
}

SimThread writer_kernel(Ctx ctx, SimArray<i64> data, i64 lo, i64 hi) {
  for (i64 i = lo; i < hi; ++i) {
    co_await ctx.store(data.addr(i), i);
    co_await ctx.compute(1);
  }
}

TEST(SmpMachine, FalseSharingCausesInvalidations) {
  // Two processors interleave writes within the same lines -> invalidation
  // traffic; disjoint line-aligned halves -> none (after warmup).
  auto invalidations = [](bool interleaved) {
    SmpConfig cfg;
    cfg.processors = 2;
    SmpMachine m(cfg);
    SimArray<i64> data(m.memory(), 4096);
    if (interleaved) {
      // Both threads write the full range (same lines, ping-pong).
      m.spawn(writer_kernel, data, i64{0}, i64{2048});
      m.spawn(writer_kernel, data, i64{0}, i64{2048});
    } else {
      m.spawn(writer_kernel, data, i64{0}, i64{2048});
      m.spawn(writer_kernel, data, i64{2048}, i64{4096});
    }
    m.run_region();
    return m.stats().invalidations;
  };
  EXPECT_GT(invalidations(true), 10 * (invalidations(false) + 1));
}

SimThread barrier_then_read(Ctx ctx, SimArray<i64> flags, i64 self,
                            Addr errors) {
  co_await ctx.store(flags.addr(self), 1);
  co_await ctx.barrier();
  for (i64 i = 0; i < flags.size(); ++i) {
    const i64 f = co_await ctx.load(flags.addr(i));
    if (f != 1) {
      co_await ctx.fetch_add(errors, 1);
    }
  }
}

TEST(SmpMachine, BarrierSeparatesPhases) {
  SmpConfig cfg;
  cfg.processors = 4;
  SmpMachine m(cfg);
  SimArray<i64> flags(m.memory(), 4);
  flags.fill(0);
  SimArray<i64> errors(m.memory(), 1);
  for (i64 t = 0; t < 4; ++t) {
    m.spawn(barrier_then_read, flags, t, errors.addr(0));
  }
  m.run_region();
  EXPECT_EQ(errors.get(0), 0);
  EXPECT_EQ(m.stats().barriers, 1);
}

TEST(SmpMachine, BarrierCostGrowsWithProcessors) {
  auto barrier_cycles = [](u32 procs) {
    SmpConfig cfg;
    cfg.processors = procs;
    SmpMachine m(cfg);
    SimArray<i64> flags(m.memory(), procs);
    SimArray<i64> errors(m.memory(), 1);
    for (u32 t = 0; t < procs; ++t) {
      m.spawn(barrier_then_read, flags, static_cast<i64>(t), errors.addr(0));
    }
    m.run_region();
    return m.cycles();
  };
  EXPECT_GT(barrier_cycles(8), barrier_cycles(2));
}

SimThread producer(Ctx ctx, Addr a, i64 value) {
  co_await ctx.compute(500);
  co_await ctx.write_ef(a, value);
}

SimThread consumer(Ctx ctx, Addr a, Addr out) {
  const i64 v = co_await ctx.read_fe(a);
  co_await ctx.store(out, v);
}

TEST(SmpMachine, EmulatedFullEmptyWorksButCostsBusTraffic) {
  SmpConfig cfg;
  cfg.processors = 2;
  SmpMachine m(cfg);
  SimArray<i64> cell(m.memory(), 1);
  SimArray<i64> out(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);
  m.spawn(consumer, cell.addr(0), out.addr(0));
  m.spawn(producer, cell.addr(0), i64{55});
  m.run_region();
  EXPECT_EQ(out.get(0), 55);
  EXPECT_GT(m.stats().sync_ops, 0);
}

TEST(SmpMachine, OversubscriptionContextSwitches) {
  SmpMachine m;  // 1 processor
  SimArray<i64> counter(m.memory(), 1);
  for (i64 t = 0; t < 4; ++t) {
    m.spawn(fetch_add_n, counter.addr(0), 50);
  }
  m.run_region();
  EXPECT_EQ(counter.get(0), 200);
  EXPECT_GT(m.stats().context_switches, 0);
}

TEST(SmpMachine, DeadlockIsDetected) {
  SmpMachine m;
  SimArray<i64> cell(m.memory(), 1);
  m.memory().set_full(cell.addr(0), false);
  m.spawn(consumer, cell.addr(0), cell.addr(0));
  EXPECT_THROW(m.run_region(), std::logic_error);
}

TEST(SmpMachine, DeterministicAcrossRuns) {
  auto run = [] {
    SmpConfig cfg;
    cfg.processors = 4;
    SmpMachine m(cfg);
    SimArray<i64> data(m.memory(), 2048);
    for (i64 t = 0; t < 4; ++t) {
      m.spawn(writer_kernel, data, t * 512, (t + 1) * 512);
    }
    m.run_region();
    return m.cycles();
  };
  EXPECT_EQ(run(), run());
}

TEST(SmpMachine, DirectoryCoversMemoryAllocatedBetweenRegions) {
  // The coherence directory is sized from SimMemory at each region start.
  // Region 1 runs on a small array; the host then allocates a new one, and
  // in region 2 four processors write-share every line of it. A directory
  // that was not grown indexes past its end here (caught by AG_DCHECK in
  // debug builds and by the ARCHGRAPH_SANITIZE build).
  SmpConfig cfg;
  cfg.processors = 4;
  SmpMachine m(cfg);
  SimArray<i64> first(m.memory(), 64);
  m.spawn(writer_kernel, first, i64{0}, i64{64});
  m.spawn(writer_kernel, first, i64{0}, i64{64});
  m.run_region();
  const i64 first_invalidations = m.stats().invalidations;

  SimArray<i64> grown(m.memory(), 4096);
  for (i64 t = 0; t < 4; ++t) {
    m.spawn(writer_kernel, grown, i64{0}, i64{4096});
  }
  m.run_region();
  EXPECT_EQ(m.stats().regions, 2);
  for (i64 i = 0; i < grown.size(); ++i) {
    ASSERT_EQ(grown.get(i), i);
  }
  EXPECT_EQ(first_invalidations, 24);
  EXPECT_EQ(m.stats().invalidations - first_invalidations, 12292);
  EXPECT_EQ(m.stats().interventions, 12316);
  EXPECT_EQ(m.cycles(), 137728);
}

/// Records the time of every on_advance() call; the rest is ignored.
class AdvanceRecorder final : public ProfHook {
 public:
  void on_prof_region_begin(const Machine&) override {}
  void on_advance(const Machine&, Cycle region_cycle) override {
    times.push_back(region_cycle);
  }
  void on_access(Addr, AccessClass, bool) override {}
  void on_prof_region_end(const Machine&) override {}

  std::vector<Cycle> times;
};

TEST(SmpMachine, ProfilerSeesEveryFusedDispatch) {
  // Fused dispatches never pass through the queue, yet a profiler must see
  // one advance per handled event, in time order, exactly as if each had
  // been pushed and popped, and its presence must not change what fuses.
  // One processor with two threads (quantum expiries, context switches)
  // fuses nearly every dispatch. On four processors the two chains
  // interleave, and fuse only once the shorter thread has finished.
  for (const u32 procs : {1u, 4u}) {
    auto run = [procs](ProfHook* hook) {
      SmpConfig cfg;
      cfg.processors = procs;
      cfg.quantum = 2000;
      auto m = std::make_unique<SmpMachine>(cfg);
      m->set_prof_hook(hook);
      SimArray<i64> data(m->memory(), 2048);
      m->spawn(writer_kernel, data, i64{0}, i64{1536});
      m->spawn(writer_kernel, data, i64{1536}, i64{2048});
      m->run_region();
      return m;
    };
    AdvanceRecorder rec;
    const auto profiled = run(&rec);
    const auto plain = run(nullptr);
    EXPECT_GT(profiled->events_fused(), 0u) << procs;
    EXPECT_EQ(rec.times.size(),
              profiled->events_pushed() + profiled->events_fused())
        << procs;
    EXPECT_TRUE(std::is_sorted(rec.times.begin(), rec.times.end())) << procs;
    EXPECT_EQ(profiled->events_fused(), plain->events_fused()) << procs;
    EXPECT_EQ(profiled->events_pushed(), plain->events_pushed()) << procs;
    EXPECT_EQ(profiled->cycles(), plain->cycles()) << procs;
  }
}

TEST(SmpMachine, RejectsTooManyProcessors) {
  SmpConfig cfg;
  cfg.processors = 33;
  EXPECT_THROW(SmpMachine{cfg}, std::logic_error);
}

}  // namespace
}  // namespace archgraph::sim
