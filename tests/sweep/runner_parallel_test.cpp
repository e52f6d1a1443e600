// Parallel run_plan must be observationally identical to the serial run:
// same cells, same simulated cycle counts, same callback order. Host
// parallelism is allowed to change only wall-clock time, never results —
// that is the determinism contract `archgraph_sweep run --jobs N` exposes.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace archgraph::sweep {
namespace {

/// A multi-axis plan mixing both machine models and both input kinds —
/// 12 cells: 2 kernels x (layouts or m values) x machine variants.
SweepPlan mixed_plan() {
  return expand_all({
      "kernel=lr_walk machine=mta:procs={1,2} layout={ordered,random} n=512",
      "kernel=cc_sv_smp machine=smp:procs={1,2} n=128 m={256,512}",
  });
}

/// RunOptions with only `jobs` set (field-by-field: designated aggregate
/// initialization of a partial field list trips -Wmissing-field-initializers).
RunOptions jobs_options(usize jobs) {
  RunOptions options;
  options.jobs = jobs;
  return options;
}

TEST(RunPlanParallel, MatchesSerialResultsExactly) {
  const SweepPlan plan = mixed_plan();
  const PlanRun serial = run_plan(plan, jobs_options(1));
  const PlanRun parallel = run_plan(plan, jobs_options(4));
  ASSERT_EQ(serial.cells.size(), plan.cells.size());
  ASSERT_EQ(parallel.cells.size(), serial.cells.size());
  EXPECT_EQ(parallel.jobs, 4u);
  for (usize i = 0; i < serial.cells.size(); ++i) {
    const CellResult& a = serial.cells[i];
    const CellResult& b = parallel.cells[i];
    EXPECT_EQ(a.cell.run_id(), b.cell.run_id()) << "cell " << i;
    EXPECT_EQ(a.meas.cycles, b.meas.cycles) << a.cell.run_id();
    EXPECT_EQ(a.meas.stats.instructions, b.meas.stats.instructions)
        << a.cell.run_id();
    EXPECT_EQ(a.iterations, b.iterations) << a.cell.run_id();
    EXPECT_EQ(a.verified, b.verified) << a.cell.run_id();
  }
}

TEST(RunPlanParallel, CallbacksArriveSerializedAndInPlanOrder) {
  const SweepPlan plan = mixed_plan();
  std::vector<std::string> seen;
  std::atomic<int> in_callback{0};
  const PlanRun run = run_plan(
      plan, jobs_options(4),
      [&](const CellResult& r, usize index, usize total) {
        // on_cell must never run concurrently with itself.
        EXPECT_EQ(in_callback.fetch_add(1), 0);
        EXPECT_EQ(index, seen.size());
        EXPECT_EQ(total, plan.cells.size());
        seen.push_back(r.cell.run_id());
        in_callback.fetch_sub(1);
      });
  ASSERT_EQ(seen.size(), plan.cells.size());
  for (usize i = 0; i < plan.cells.size(); ++i) {
    EXPECT_EQ(seen[i], plan.cells[i].run_id());
  }
  EXPECT_EQ(run.cells.size(), plan.cells.size());
}

TEST(RunPlanParallel, GeneratesEachDistinctInputOnce) {
  // The machine axis is innermost, so cells differing only in the machine
  // spec share one input. This plan has 2 distinct inputs (ordered/random
  // 512-node lists) spread over 8 cells.
  const SweepPlan plan = expand(
      "kernel=lr_walk machine=mta:procs={1,2,4,8} layout={ordered,random} "
      "n=512");
  ASSERT_EQ(plan.cells.size(), 8u);
  const PlanRun parallel = run_plan(plan, jobs_options(4));
  EXPECT_EQ(parallel.inputs_generated, 2u);
  const PlanRun serial = run_plan(plan, jobs_options(1));
  EXPECT_EQ(serial.inputs_generated, 2u);
}

TEST(RunPlanParallel, JobsZeroMeansAutoAndClampsToPlanSize) {
  const SweepPlan plan =
      expand("kernel=lr_walk machine=mta layout=ordered n=256");
  const PlanRun run = run_plan(plan, jobs_options(0));
  // One cell: however many workers the host has, only one is ever used.
  EXPECT_EQ(run.jobs, 1u);
  EXPECT_GE(auto_jobs(), 1u);
}

TEST(RunPlanParallel, CellFailurePropagatesToCaller) {
  // The failing cell sits first, in the middle and last, so over the runs it
  // is claimed by the calling thread and by spawned ones alike. A throw that
  // escaped a spawned thread would call std::terminate and fail the binary.
  const SweepPlan good = mixed_plan();
  for (const usize bad : {usize{0}, good.cells.size() / 2,
                          good.cells.size() - 1}) {
    SweepPlan plan = good;
    plan.cells[bad].machine = "vax";  // invalid spec fails inside a worker
    for (const usize jobs : {usize{2}, usize{4}}) {
      for (int run = 0; run < 3; ++run) {
        EXPECT_THROW(run_plan(plan, jobs_options(jobs)), std::logic_error)
            << "bad cell " << bad << ", jobs " << jobs << ", run " << run;
      }
    }
  }
}

}  // namespace
}  // namespace archgraph::sweep
