// Ablation for the paper's §3 utilization claim: "by using 100 streams per
// processor and approximately 10 list nodes per walk, we achieve almost 100%
// utilization — so a linked list of length 1000p fully utilizes an MTA system
// with p processors."
//
// Sweep the number of walks (i.e. nodes per walk) and report utilization.
// Too few walks -> idle streams; enough walks -> near-full issue rate; very
// many walks -> the O(W log W) doubling step begins to cost.
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
      "ABL-WALK — Walk count vs. MTA utilization and time",
      "paper §3: ~10 nodes/walk with 100+ streams reaches ~100% utilization");

  const graph::LinkedList list = graph::random_list(n, 0x77aau);
  Table table({"walks", "nodes/walk", "utilization", "cycles"}, 3);

  for (const i64 walks : {i64{16}, i64{64}, i64{128}, i64{256}, i64{1024},
                          i64{4096}, i64{16384}, n / 10}) {
    const auto m = sim::make_machine(bench::paper_mta_spec(1));
    core::WalkLrParams params;
    params.num_walks = walks;
    core::sim_rank_list_walk(*m, list, params);
    table.row()
        .add(walks)
        .add(static_cast<double>(n) / static_cast<double>(walks))
        .add(m->utilization())
        .add(m->cycles());
  }
  std::cout << table
            << "\nExpected shape: utilization rises toward ~1 once walks >> "
               "streams (128), then extra\nwalks stop helping while the "
               "pointer-doubling step grows.\n";
  return 0;
}

int main() { return archgraph::bench::run_main("ablation_walks", bench_main); }
