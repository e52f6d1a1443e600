// Structural guard: every registry kernel runs as one coroutine frame per
// simulated thread. A per-item nested coroutine (one frame per edge, vertex,
// arc, walk or push) costs the host a frame and a resume per level and
// models nothing, so the budget is at most two frames per spawned thread on
// every machine. The counts come from the host-side frame pool counters;
// they never touch a simulated result.
//
// Frame bytes are budgeted too: each resident simulated thread keeps its
// frame hot, so on the fine-grain machines (thousands of MTA streams or GPU
// lanes) the frame size is the host footprint per thread. The bounds sit
// between what pointer-sized op awaiters (sim/task.hpp) give with GCC 12 —
// a mean near 280 B over all kernels, at most about 1.4 KiB for one — and
// what awaiters carrying a whole Operation give: about 500 B and 2.6 KiB.
#include <gtest/gtest.h>

#include <string>

#include "sim/frame_pool.hpp"
#include "sim/machine_spec.hpp"
#include "sweep/registry.hpp"

namespace archgraph::sweep {
namespace {

/// Frame bytes per thread, over every kernel on one machine.
constexpr double kMeanFrameBytes = 384;
/// Frame bytes per thread of any one kernel.
constexpr double kKernelFrameBytes = 1536;

TEST(FrameBudget, EveryKernelAllocatesAtMostTwoFramesPerThread) {
  for (const std::string machine : {"mta:procs=2", "smp:procs=2",
                                    "gpu:procs=2"}) {
    const bool fine_grain = machine.rfind("smp", 0) != 0;
    i64 machine_threads = 0;
    u64 machine_bytes = 0;
    for (const KernelInfo& kernel : kernel_registry()) {
      SCOPED_TRACE(kernel.name + " on " + machine);
      SweepCell cell;
      cell.kernel = kernel.name;
      cell.machine = machine;
      cell.n = kernel.input == InputKind::kList ? 1024 : 256;
      cell.m = kernel.input == InputKind::kList ? 0 : 1024;
      const KernelInput input = make_input(kernel, cell);
      const auto mach = sim::make_machine(machine);

      const sim::detail::FramePool& pool = sim::detail::frame_pool();
      const u64 before = pool.allocations();
      const u64 bytes_before = pool.bytes();
      kernel.run(*mach, input, /*verify=*/true);
      const i64 frames = static_cast<i64>(pool.allocations() - before);
      const u64 bytes = pool.bytes() - bytes_before;

      const i64 threads = mach->stats().threads;
      ASSERT_GT(threads, 0);
      EXPECT_GE(frames, threads);  // every thread has its own frame
      EXPECT_LE(frames, 2 * threads);
      if (fine_grain) {
        EXPECT_LE(static_cast<double>(bytes) / threads, kKernelFrameBytes);
      }
      machine_threads += threads;
      machine_bytes += bytes;
    }
    if (fine_grain) {
      EXPECT_LE(static_cast<double>(machine_bytes) / machine_threads,
                kMeanFrameBytes)
          << machine;
    }
  }
}

}  // namespace
}  // namespace archgraph::sweep
