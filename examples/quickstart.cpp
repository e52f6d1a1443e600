// Quickstart: the three things archgraph does, in ~60 lines.
//   1. Rank a linked list with the sequential host reference.
//   2. Find connected components of a random graph with union-find.
//   3. Run the same kernels on the simulated Cray MTA-2 and Sun SMP and
//      compare simulated times — the paper's experiment in miniature.
#include <iostream>

#include "core/concomp/concomp.hpp"
#include "core/experiment.hpp"
#include "core/kernels/kernels.hpp"
#include "core/listrank/listrank.hpp"
#include "graph/generators.hpp"
#include "graph/linked_list.hpp"
#include "graph/validate.hpp"
#include "sim/machine_spec.hpp"

int main() {
  using namespace archgraph;

  // --- 1. list ranking, host reference ------------------------------------
  const i64 n = 100'000;
  const graph::LinkedList list = graph::random_list(n, /*seed=*/1);
  const std::vector<i64> ranks = core::rank_sequential(list);
  std::cout << "list ranking: ranked " << n << " nodes; head is at slot "
            << list.head << " (rank " << ranks[static_cast<usize>(list.head)]
            << "), valid = " << std::boolalpha
            << (ranks == graph::ranks_by_traversal(list)) << "\n";

  // --- 2. connected components, host reference ----------------------------
  const graph::EdgeList g = graph::random_graph(50'000, 120'000, /*seed=*/2);
  const std::vector<NodeId> labels = core::cc_union_find(g);
  std::cout << "connected components: n=" << g.num_vertices()
            << " m=" << g.num_edges() << " -> "
            << graph::validate::count_distinct_labels(labels)
            << " components\n";

  // --- 3. the paper's comparison, simulated -------------------------------
  const graph::LinkedList small = graph::random_list(1 << 16, /*seed=*/3);

  // Machines come from specs: "<preset>[:key=value,...]" — see
  // sim/machine_spec.hpp for the full key tables.
  const auto mta = sim::make_machine("mta:procs=8");
  core::sim_rank_list_walk(*mta, small);

  const auto smp = sim::make_machine("smp:procs=8");
  core::sim_rank_list_hj(*smp, small);

  // Cycle accounting: every processor-cycle slot lands in one category, so
  // the gap between utilization and 100% has a named cause.
  const sim::CycleBreakdown& mb = mta->stats().breakdown;
  const sim::CycleBreakdown& sb = smp->stats().breakdown;
  std::cout << "simulated list ranking of a random " << (1 << 16)
            << "-node list, p=8:\n"
            << "  Cray MTA-2: " << mta->seconds() * 1e3 << " ms  (utilization "
            << 100.0 * mta->utilization() << "%, "
            << 100.0 * mb.share(sim::CycleCat::kNoReadyStream)
            << "% of slots waiting on memory)\n"
            << "  Sun SMP:    " << smp->seconds() * 1e3 << " ms  ("
            << 100.0 * sb.share(sim::CycleCat::kMemFillWait)
            << "% of slots waiting on cache fills)\n"
            << "  MTA advantage: " << smp->seconds() / mta->seconds() << "x\n";
  return 0;
}
