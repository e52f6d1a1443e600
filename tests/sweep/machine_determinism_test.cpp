// Golden-value determinism pins for all three machine models. The values
// below were captured from the pre-restructure simulator (the committed
// baselines' generation) and must never move: hot-loop rework — event-queue
// levels, ready-ring layouts, SoA scheduling state, event batching — may
// change how fast the host simulates, never what it simulates. A failure
// here means simulated behavior drifted; fix the restructure, don't re-bake
// the goldens.
#include <gtest/gtest.h>

#include "sim/machine_spec.hpp"
#include "sim/stats.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace archgraph::sweep {
namespace {

using sim::CycleCat;

struct Golden {
  const char* spec;
  i64 cycles;
  i64 instructions;
  i64 memory_ops;
  // (category, slots) pairs for every non-zero accounting bucket; all other
  // buckets must be exactly zero.
  std::vector<std::pair<CycleCat, sim::Cycle>> acct;
};

/// One cell per machine model, shaped like the ci grid's cells: list
/// ranking on the fine-grain machines' fig1 path, Shiloach-Vishkin CC for
/// the SIMT model so divergence/coalescing accounting is exercised too.
const std::vector<Golden>& goldens() {
  static const std::vector<Golden> g = {
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

sim::CycleBreakdown expected_breakdown(const Golden& g) {
  sim::CycleBreakdown b;
  for (const auto& [cat, slots] : g.acct) b[cat] = slots;
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
    EXPECT_EQ(r.breakdown, expected_breakdown(g)) << g.spec;
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
    EXPECT_EQ(r.breakdown, expected_breakdown(g)) << g.spec;
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

}  // namespace
}  // namespace archgraph::sweep
