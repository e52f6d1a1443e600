// Structural guard: every registry kernel runs as one coroutine frame per
// simulated thread. A per-item nested coroutine (one frame per edge, vertex,
// arc, walk or push) costs the host a frame and a resume per level and
// models nothing, so the budget is at most two frames per spawned thread on
// every machine. The count comes from the host-side frame pool counter; it
// never touches a simulated result.
#include <gtest/gtest.h>

#include <string>

#include "sim/frame_pool.hpp"
#include "sim/machine_spec.hpp"
#include "sweep/registry.hpp"

namespace archgraph::sweep {
namespace {

TEST(FrameBudget, EveryKernelAllocatesAtMostTwoFramesPerThread) {
  for (const char* machine : {"mta:procs=2", "smp:procs=2", "gpu:procs=2"}) {
    for (const KernelInfo& kernel : kernel_registry()) {
      SCOPED_TRACE(kernel.name + " on " + machine);
      SweepCell cell;
      cell.kernel = kernel.name;
      cell.machine = machine;
      cell.n = kernel.input == InputKind::kList ? 1024 : 256;
      cell.m = kernel.input == InputKind::kList ? 0 : 1024;
      const KernelInput input = make_input(kernel, cell);
      const auto mach = sim::make_machine(machine);

      const u64 before = sim::detail::frame_pool().allocations();
      kernel.run(*mach, input, /*verify=*/true);
      const i64 frames =
          static_cast<i64>(sim::detail::frame_pool().allocations() - before);

      const i64 threads = mach->stats().threads;
      ASSERT_GT(threads, 0);
      EXPECT_GE(frames, threads);  // every thread has its own frame
      EXPECT_LE(frames, 2 * threads);
    }
  }
}

}  // namespace
}  // namespace archgraph::sweep
