// Machine-level guard for the event queue's region epochs. Every
// run_region() restarts simulated time at 0, so a region shorter than an
// earlier one must still schedule through the queue's FIFO and bucket
// levels, never the overflow heap. Shiloach-Vishkin CC and walk-based list
// ranking are the trigger shape: one long region, then shorter ones. The
// heap-push count is a host-side diagnostic (it never enters a record); the
// cycle pins are machine_determinism_test's goldens, unchanged by the fix.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/machine.hpp"
#include "sim/machine_spec.hpp"
#include "sweep/registry.hpp"
#include "sweep/spec.hpp"

namespace archgraph::sweep {
namespace {

/// Heap pushes taken inside each region, from the machine's running count.
class HeapPushLog final : public sim::RegionObserver {
 public:
  void on_region_begin(const sim::Machine& m) override {
    at_begin_ = m.event_heap_pushes();
  }
  void on_barrier_release(const sim::Machine&, sim::Cycle) override {}
  void on_region_end(const sim::Machine& m) override {
    per_region.push_back(m.event_heap_pushes() - at_begin_);
  }

  std::vector<u64> per_region;

 private:
  u64 at_begin_ = 0;
};

struct Case {
  const char* spec;
  /// Heap pushes a region may take. A region fork at or beyond the bucket
  /// window (GPU fork = 512, SMP fork = 3000) schedules each processor's
  /// first dispatch on the heap: at most one push per processor, whatever
  /// ran before. With the fork inside the window there are none.
  u64 max_per_region;
  sim::Cycle golden_cycles;  // machine_determinism_test's pin, or -1
};

TEST(RegionEpoch, LaterRegionsStayOffTheHeap) {
  static_assert(sim::EventQueue::kBuckets == 512);
  const std::vector<Case> cases = {
      {"kernel=lr_walk machine=mta:procs=2 n=1024 layout=random", 0, 33455},
      {"kernel=cc_sv_mta machine=mta:procs=2 n=512 m=4096 layout=random", 0,
       -1},
      {"kernel=cc_sv_mta machine=gpu:procs=2 n=512 m=4096 layout=random", 2,
       298316},
      {"kernel=cc_sv_mta machine=gpu:procs=2,fork=256 n=512 m=4096 "
       "layout=random",
       0, -1},
      {"kernel=cc_sv_mta machine=smp:procs=2 n=512 m=4096 layout=random", 2,
       -1},
      {"kernel=cc_sv_mta machine=smp:procs=2,fork=256 n=512 m=4096 "
       "layout=random",
       0, -1},
  };
  for (const Case& c : cases) {
    const SweepPlan plan = expand_all({c.spec});
    ASSERT_EQ(plan.cells.size(), 1u) << c.spec;
    const SweepCell& cell = plan.cells[0];
    const KernelInfo& info = find_kernel(cell.kernel);
    const KernelInput input = make_input(info, cell);
    const auto machine = sim::make_machine(cell.machine);
    HeapPushLog log;
    machine->set_region_observer(&log);
    EXPECT_TRUE(info.run(*machine, input, /*verify=*/true).verified)
        << c.spec;

    // The shape that exposed the bug: some region is shorter than the
    // longest region before it, so its times lie "in the past" of a queue
    // that kept the earlier region's clock.
    const auto& regions = machine->region_log();
    ASSERT_EQ(log.per_region.size(), regions.size()) << c.spec;
    bool restarts_shorter = false;
    sim::Cycle longest = 0;
    for (const auto& r : regions) {
      restarts_shorter |= r.cycles < longest;
      longest = std::max(longest, r.cycles);
    }
    EXPECT_TRUE(restarts_shorter) << c.spec;

    for (usize i = 0; i < log.per_region.size(); ++i) {
      EXPECT_LE(log.per_region[i], c.max_per_region)
          << c.spec << " region " << i;
    }
    if (c.golden_cycles >= 0) {
      EXPECT_EQ(machine->cycles(), c.golden_cycles) << c.spec;
    }
  }
}

}  // namespace
}  // namespace archgraph::sweep
