// Ablation for the paper's §3 load-balancing discussion: "If threads are
// assigned to streams in blocks, the work per stream will not be balanced...
// To avoid load imbalances, we instruct the compiler to dynamically schedule
// the iterations" (via int_fetch_add).
//
// We run the walk-based list-ranking kernel with both schedules on a random
// list (random mark positions make walk lengths uneven). Dynamic scheduling
// should win, and the gap should grow when walks are fewer and longer
// (less averaging per stream).
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/kernels/kernels.hpp"
#include "graph/linked_list.hpp"

static int bench_main() {
  using namespace archgraph;
  using bench::Scale;
  const Scale scale = bench::scale_from_env();
  const i64 n = scale == Scale::kQuick ? (1 << 15) : (1 << 18);

  bench::print_header(
      "ABL-SCHED — Block vs. dynamic (int_fetch_add) walk scheduling on the "
      "MTA",
      "paper §3: dynamic scheduling avoids load imbalance from uneven walk "
      "lengths");

  const graph::LinkedList list = graph::random_list(n, 0xabcdu);
  Table table({"walks", "walks/stream", "block cycles", "dynamic cycles",
               "block/dynamic"},
              3);

  // One processor = 128 streams. With walks <= streams the two schedules
  // coincide (every stream gets at most one walk); the gap opens once each
  // stream owns several walks of random (exponential) length and a block
  // assignment concentrates bad luck on one stream.
  for (const i64 walks : {128, 512, 2048, 8192, 32768}) {
    auto cycles = [&](bool block) {
      const auto m = sim::make_machine(bench::paper_mta_spec(1));
      core::WalkLrParams params;
      params.num_walks = walks;
      params.block_schedule = block;
      core::sim_rank_list_walk(*m, list, params);
      return m->cycles();
    };
    const auto block_c = cycles(true);
    const auto dyn_c = cycles(false);
    table.row()
        .add(walks)
        .add(static_cast<double>(walks) / 128.0)
        .add(block_c)
        .add(dyn_c)
        .add(static_cast<double>(block_c) / static_cast<double>(dyn_c));
  }
  std::cout << table
            << "\nExpected shape: ratio ~1 at walks <= streams (no scheduling "
               "freedom), > 1 once\nstreams own several uneven walks — the "
               "paper's case for int_fetch_add scheduling.\n";
  return 0;
}

int main() {
  return archgraph::bench::run_main("ablation_scheduling", bench_main);
}
