// Golden-value determinism pins for all three machine models. The values
// below were captured from the pre-restructure simulator (the committed
// baselines' generation) and must never move: hot-loop rework — event-queue
// levels, ready-ring layouts, SoA scheduling state, event batching — may
// change how fast the host simulates, never what it simulates. A failure
// here means simulated behavior drifted; fix the restructure, don't re-bake
// the goldens.
#include <gtest/gtest.h>

#include "obs/prof/prof.hpp"
#include "sim/machine_spec.hpp"
#include "sim/stats.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace archgraph::sweep {
namespace {

using sim::CycleCat;
using Buckets = std::vector<std::pair<CycleCat, sim::Cycle>>;

struct Golden {
  const char* spec;
  i64 cycles;
  i64 instructions;
  i64 memory_ops;
  // (category, slots) pairs for every non-zero accounting bucket; all other
  // buckets must be exactly zero.
  Buckets acct;
};

/// One cell per machine model, shaped like the ci grid's cells: list
/// ranking on the fine-grain machines' fig1 path, Shiloach-Vishkin CC for
/// the SIMT model so divergence/coalescing accounting is exercised too.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> g = {
      // One-processor MTA rows, captured before the MTA's cycle issue loop
      // replaced its ready and issue events: at one processor the loop's
      // tie rule orders issues exactly as the old event sequence did.
      {"kernel=lr_walk machine=mta:procs=1 n=1024 layout=random",
       37565,
       16769,
       13569,
       {{CycleCat::kIssued, 16769},
        {CycleCat::kNoReadyStream, 17468},
        {CycleCat::kIdleNoThread, 3328}}},
      {"kernel=cc_sv_mta machine=mta:procs=1 n=512 m=4096 layout=random",
       202602,
       160578,
       108075,
       {{CycleCat::kIssued, 160578},
        {CycleCat::kNoReadyStream, 40488},
        {CycleCat::kIdleNoThread, 1536}}},
      {"kernel=lr_walk machine=mta:procs=2 n=1024 layout=random",
       33455,
       16897,
       13697,
       {{CycleCat::kIssued, 16897},
        {CycleCat::kNoReadyStream, 35182},
        {CycleCat::kIdleNoThread, 14831}}},
      {"kernel=lr_hj machine=smp:procs=2,l2_kb=256 n=1024 layout=random",
       127157,
       13514,
       10370,
       {{CycleCat::kIssued, 21822},
        {CycleCat::kL1MissWait, 16611},
        {CycleCat::kL2MissWait, 13839},
        {CycleCat::kMemFillWait, 115090},
        {CycleCat::kBusContention, 13187},
        {CycleCat::kBarrierWait, 43654},
        {CycleCat::kIdle, 30111}}},
      {"kernel=cc_sv_mta machine=gpu:procs=2 n=512 m=4096 layout=random",
       298316,
       7675,
       74007,
       {{CycleCat::kIssued, 3876},
        {CycleCat::kIdleNoThread, 127309},
        {CycleCat::kDivergenceSerial, 3799},
        {CycleCat::kCoalesceWait, 458295},
        {CycleCat::kBankConflict, 3353}}},
  };
  return g;
}

sim::CycleBreakdown expected_breakdown(const Buckets& acct) {
  sim::CycleBreakdown b;
  for (const auto& [cat, slots] : acct) b[cat] = slots;
  return b;
}

TEST(MachineDeterminism, GoldenCyclesSurviveTheHotLoopRestructure) {
  for (const Golden& g : goldens()) {
    const SweepPlan plan = expand_all({g.spec});
    ASSERT_EQ(plan.cells.size(), 1u) << g.spec;
    const ResultRecord r = to_record(run_cell(plan.cells[0]));
    EXPECT_TRUE(r.verified) << g.spec;
    EXPECT_EQ(r.cycles, g.cycles) << g.spec;
    EXPECT_EQ(r.instructions, g.instructions) << g.spec;
    EXPECT_EQ(r.memory_ops, g.memory_ops) << g.spec;
    EXPECT_EQ(r.breakdown, expected_breakdown(g.acct)) << g.spec;
  }
}

TEST(MachineDeterminism, OddMtaLatencyLengthensTheResponseLeg) {
  // The request leg is latency / 2 and the response leg the rest, so each
  // extra latency cycle lengthens every round trip; 100 keeps its golden.
  i64 last = 0;
  for (const i64 latency : {100, 101, 102}) {
    const std::string spec = "kernel=lr_hj machine=mta:procs=4,latency=" +
                             std::to_string(latency) +
                             " n=4096 layout=random seed=1";
    const SweepPlan plan = expand_all({spec});
    ASSERT_EQ(plan.cells.size(), 1u) << spec;
    const ResultRecord r = to_record(run_cell(plan.cells[0]));
    EXPECT_TRUE(r.verified) << spec;
    if (latency == 100) {
      EXPECT_EQ(r.cycles, 1269288);
    }
    EXPECT_GT(r.cycles, last) << spec;
    last = r.cycles;
  }
}

TEST(MachineDeterminism, OddMtaNumaExtraLengthensTheResponseLeg) {
  // A remote bank's numa= extra splits like the latency: numa / 2 on the
  // request leg, the rest on the response leg. 20 keeps its value from when
  // each leg was charged numa / 2.
  i64 last = 0;
  for (const i64 numa : {20, 21, 22}) {
    const std::string spec = "kernel=lr_hj machine=mta:procs=4,numa=" +
                             std::to_string(numa) +
                             " n=4096 layout=random seed=1";
    const SweepPlan plan = expand_all({spec});
    ASSERT_EQ(plan.cells.size(), 1u) << spec;
    const ResultRecord r = to_record(run_cell(plan.cells[0]));
    EXPECT_TRUE(r.verified) << spec;
    if (numa == 20) {
      EXPECT_EQ(r.cycles, 1456443);
    }
    EXPECT_GT(r.cycles, last) << spec;
    last = r.cycles;
  }
}

TEST(MachineDeterminism, ProfilerAttachmentKeepsTheGoldens) {
  // The profiled event loop is a separate instantiation of the hot loop —
  // it must simulate the same machine to the cycle.
  RunOptions profiled;
  profiled.profile = true;
  for (const Golden& g : goldens()) {
    const SweepPlan plan = expand_all({g.spec});
    const ResultRecord r = to_record(run_cell(plan.cells[0], profiled));
    EXPECT_EQ(r.cycles, g.cycles) << g.spec;
    EXPECT_EQ(r.breakdown, expected_breakdown(g.acct)) << g.spec;
  }
}

/// The SMP's coherence counters never reach a result record (only cycles
/// do), so the tol-0 grids cannot see a directory or cache change that moves
/// them alone. Pinned here from machine.stats(): a list-ranking cell (random
/// pointer chases), a Shiloach-Vishkin cell (D[D[v]] write sharing) and a
/// coloring cell (fetch-add frontier appends, which clear a line's sharers).
/// l2_kb=64 pushes each working set past the L2 so fills, evictions and
/// writebacks all happen.
struct CoherenceGolden {
  const char* spec;
  i64 invalidations;
  i64 interventions;
  i64 writebacks;
  i64 mem_fills;
  i64 l1_hits;
  i64 l2_hits;
  sim::Cycle bus_busy;
  sim::Cycle cycles;
};

TEST(MachineDeterminism, SmpCoherenceCountersArePinned) {
  const std::vector<CoherenceGolden> goldens = {
      {"kernel=lr_hj machine=smp:procs=4,l2_kb=64 n=16384 layout=random",
       22302, 11329, 20167, 52295, 105794, 6013, 869736, 2304624},
      {"kernel=cc_sv_smp machine=smp:procs=4,l2_kb=64 n=2048 m=16384 "
       "layout=random",
       5985, 1742, 9, 39809, 511171, 23251, 478392, 2423383},
      {"kernel=color_greedy_smp machine=smp:procs=4,l2_kb=64 n=2048 m=16384 "
       "layout=random",
       6767, 5561, 2400, 35126, 264618, 15998, 788952, 2900892},
  };
  for (const CoherenceGolden& g : goldens) {
    const SweepPlan plan = expand_all({g.spec});
    ASSERT_EQ(plan.cells.size(), 1u) << g.spec;
    const SweepCell& cell = plan.cells[0];
    const KernelInfo& info = find_kernel(cell.kernel);
    const auto machine = sim::make_machine(cell.machine);
    EXPECT_TRUE(
        info.run(*machine, make_input(info, cell), /*verify=*/true).verified)
        << g.spec;
    const sim::MachineStats& s = machine->stats();
    EXPECT_EQ(s.invalidations, g.invalidations) << g.spec;
    EXPECT_EQ(s.interventions, g.interventions) << g.spec;
    EXPECT_EQ(s.writebacks, g.writebacks) << g.spec;
    EXPECT_EQ(s.mem_fills, g.mem_fills) << g.spec;
    EXPECT_EQ(s.l1_hits, g.l1_hits) << g.spec;
    EXPECT_EQ(s.l2_hits, g.l2_hits) << g.spec;
    EXPECT_EQ(s.bus_busy, g.bus_busy) << g.spec;
    EXPECT_EQ(s.cycles, g.cycles) << g.spec;
  }
}

/// Totals of run_sync_program() on one machine spec.
struct SyncGolden {
  const char* machine;
  i64 cycles;
  i64 instructions;
  i64 sync_ops;
  i64 sync_retries;
  i64 barriers;
  i64 context_switches;  // SMP oversubscription: quantum expiries and wakes
  Buckets acct;  // every non-zero accounting bucket, as in Golden
};

sim::SimThread producer(sim::Ctx ctx, sim::Addr hot, i64 base, sim::Addr done) {
  for (i64 i = 0; i < 4; ++i) {
    co_await ctx.write_ef(hot, base + i);
    co_await ctx.compute(2);
  }
  co_await ctx.barrier();
  co_await ctx.fetch_add(done, 1);
}

sim::SimThread consumer(sim::Ctx ctx, sim::Addr hot, sim::Addr sum,
                        sim::Addr done) {
  for (i64 i = 0; i < 4; ++i) {
    const i64 v = co_await ctx.read_fe(hot);
    co_await ctx.fetch_add(sum, v);
  }
  co_await ctx.barrier();
  co_await ctx.fetch_add(done, 1);
}

sim::SimThread ping(sim::Ctx ctx, sim::Addr p, sim::Addr q, sim::Addr out) {
  i64 v = 0;
  for (i64 i = 0; i < 4; ++i) {
    co_await ctx.write_ef(p, v);
    v = co_await ctx.read_fe(q);
  }
  co_await ctx.store(out, v);
  co_await ctx.barrier();
}

sim::SimThread pong(sim::Ctx ctx, sim::Addr p, sim::Addr q) {
  for (i64 i = 0; i < 4; ++i) {
    const i64 v = co_await ctx.read_fe(p);
    co_await ctx.write_ef(q, v + 1);
  }
  co_await ctx.barrier();
}

sim::SimThread flag_reader(sim::Ctx ctx, sim::Addr flag, sim::Addr out) {
  const i64 v = co_await ctx.read_ff(flag);
  co_await ctx.store(out, v);
  co_await ctx.barrier();
}

sim::SimThread flag_setter(sim::Ctx ctx, sim::Addr flag) {
  co_await ctx.compute(40);
  co_await ctx.write_ef(flag, 7);
  co_await ctx.compute(3000);  // finishes while the others wait
}

sim::SimThread token_link(sim::Ctx ctx, sim::Addr in, sim::Addr out,
                          sim::Addr seen) {
  const i64 v = co_await ctx.read_fe(in);
  co_await ctx.compute(5);
  co_await ctx.write_ef(out, 2 * v);
  co_await ctx.barrier();
  co_await ctx.store(seen, v);
}

/// No registry kernel issues read_ff/read_fe/write_ef, so the grids above
/// never reach the full/empty waiter paths, and barrier episodes there always
/// release on an arrival. This program drives both on purpose, over two
/// regions, and checks its answers:
///   region 1: three producers (write_ef) and three consumers (read_fe) on
///             one hot word, so waiters of both polarities park on it; a
///             ping-pong handoff over two words; two read_ff readers parked
///             on a flag; and a flag setter that finishes long after every
///             other thread has reached the barrier, so its finish releases
///             the episode;
///   region 2: a token passed down a chain of empty words by threads
///             spawned in reverse, then a barrier every thread reaches.
void run_sync_program(sim::Machine& m) {
  sim::SimMemory& mem = m.memory();
  const sim::Addr w = mem.alloc(16);
  const sim::Addr hot = w, sum = w + 1, done = w + 2, p = w + 3, q = w + 4,
                  flag = w + 5, pong_out = w + 6, ff_out = w + 7;
  for (const sim::Addr a : {hot, p, q, flag}) mem.set_full(a, false);
  for (i64 t = 0; t < 3; ++t) m.spawn(producer, hot, 10 * t + 1, done);
  for (i64 t = 0; t < 3; ++t) m.spawn(consumer, hot, sum, done);
  m.spawn(ping, p, q, pong_out);
  m.spawn(pong, p, q);
  m.spawn(flag_reader, flag, ff_out);
  m.spawn(flag_reader, flag, ff_out + 1);
  m.spawn(flag_setter, flag);
  m.run_region();
  EXPECT_EQ(mem.read(sum), 150);  // 4 * (1 + 11 + 21) + 3 * (0+1+2+3)
  EXPECT_EQ(mem.read(done), 6);
  EXPECT_EQ(mem.read(pong_out), 4);
  EXPECT_EQ(mem.read(ff_out), 7);
  EXPECT_EQ(mem.read(ff_out + 1), 7);

  constexpr i64 kLinks = 5;
  const sim::Addr tok = mem.alloc(kLinks + 1);
  const sim::Addr seen = mem.alloc(kLinks);
  for (i64 t = 1; t <= kLinks; ++t) mem.set_full(tok + t, false);
  mem.write(tok, 1);
  for (i64 t = kLinks - 1; t >= 0; --t) {
    m.spawn(token_link, tok + t, tok + t + 1, seen + t);
  }
  m.run_region();
  EXPECT_EQ(mem.read(tok + kLinks), i64{1} << kLinks);
  for (i64 t = 0; t < kLinks; ++t) {
    EXPECT_EQ(mem.read(seen + t), i64{1} << t);
  }
}

const std::vector<SyncGolden>& sync_goldens() {
  static const std::vector<SyncGolden> g = {
      {"mta:procs=1",
       5377,
       3183,
       53,
       42,
       2,
       0,
       {{CycleCat::kIssued, 3183},
        {CycleCat::kNoReadyStream, 1556},
        {CycleCat::kBarrier, 126},
        {CycleCat::kIdleNoThread, 512}}},
      {"mta:procs=2",
       5364,
       3183,
       53,
       30,
       2,
       0,
       {{CycleCat::kIssued, 3183},
        {CycleCat::kNoReadyStream, 3245},
        {CycleCat::kSyncBlocked, 2811},
        {CycleCat::kBarrier, 463},
        {CycleCat::kIdleNoThread, 1026}}},
      {"smp:procs=2",
       114619,
       3214,
       84,
       31,
       2,
       53,
       {{CycleCat::kIssued, 3214},
        {CycleCat::kMemFillWait, 40},
        {CycleCat::kBusContention, 26726},
        {CycleCat::kRmwSpin, 18548},
        {CycleCat::kBarrierWait, 6692},
        {CycleCat::kIdle, 174018}}},
      // One processor runs every thread of both regions, so each wake,
      // quantum expiry and context switch lands on a single dispatch chain.
      {"smp:procs=1",
       262735,
       3238,
       108,
       55,
       2,
       80,
       {{CycleCat::kIssued, 3242},
        {CycleCat::kMemFillWait, 20},
        {CycleCat::kBusContention, 84},
        {CycleCat::kRmwSpin, 11214},
        {CycleCat::kBarrierWait, 2175},
        {CycleCat::kIdle, 246000}}},
      {"gpu:procs=2,warp_width=4",
       8890,
       3132,
       53,
       42,
       2,
       0,
       {{CycleCat::kIssued, 71},
        {CycleCat::kSyncBlocked, 937},
        {CycleCat::kBarrier, 1740},
        {CycleCat::kIdleNoThread, 2050},
        {CycleCat::kDivergenceSerial, 3061},
        {CycleCat::kCoalesceWait, 9921}}},
  };
  return g;
}

void expect_sync_golden(const SyncGolden& g, const sim::Machine& m) {
  const sim::MachineStats& s = m.stats();
  EXPECT_EQ(s.cycles, g.cycles) << g.machine;
  EXPECT_EQ(s.instructions, g.instructions) << g.machine;
  EXPECT_EQ(s.sync_ops, g.sync_ops) << g.machine;
  EXPECT_EQ(s.sync_retries, g.sync_retries) << g.machine;
  EXPECT_EQ(s.barriers, g.barriers) << g.machine;
  EXPECT_EQ(s.context_switches, g.context_switches) << g.machine;
  EXPECT_EQ(s.breakdown, expected_breakdown(g.acct)) << g.machine;
}

TEST(MachineDeterminism, SyncAndBarrierPathsArePinned) {
  for (const SyncGolden& g : sync_goldens()) {
    const auto machine = sim::make_machine(g.machine);
    run_sync_program(*machine);
    expect_sync_golden(g, *machine);
  }
}

TEST(MachineDeterminism, ProfilerAttachmentKeepsTheSyncGoldens) {
  for (const SyncGolden& g : sync_goldens()) {
    const auto machine = sim::make_machine(g.machine);
    obs::prof::ProfSession session(/*interval=*/64);
    session.attach(*machine, g.machine);
    run_sync_program(*machine);
    session.detach();
    expect_sync_golden(g, *machine);
  }
}

}  // namespace
}  // namespace archgraph::sweep
