// Network analysis scenario: connectivity structure of a synthetic social /
// communication network — the kind of sparse irregular workload the paper's
// introduction motivates.
//
// Pipeline: generate an R-MAT graph (power-law-ish, like real networks),
// find its connected components three ways (sequential union-find, and
// Shiloach-Vishkin on the simulated MTA and SMP), report the component-size
// distribution, then build a BFS spanning forest on the simulated MTA.
#include <algorithm>
#include <iostream>
#include <map>

#include "common/table.hpp"
#include "core/concomp/concomp.hpp"
#include "core/experiment.hpp"
#include "core/kernels/kernels.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "sim/machine_spec.hpp"

int main() {
  using namespace archgraph;

  const NodeId n = 1 << 15;
  const i64 m = 3 * n;  // sparse: average degree 6
  std::cout << "generating R-MAT network: n=" << n << " m=" << m << " ...\n";
  const graph::EdgeList g = graph::rmat_graph(n, m, 0.55, 0.2, 0.15, 7);

  // --- components, three ways ---------------------------------------------
  const auto seq_labels = core::cc_union_find(g);
  const auto mta = sim::make_machine("mta:procs=8");
  const auto mta_result = core::sim_cc_sv_mta(*mta, g);
  const auto smp = sim::make_machine("smp:procs=8");
  const auto smp_result = core::sim_cc_sv_smp(*smp, g);

  AG_CHECK(seq_labels == mta_result.labels, "simulated MTA SV disagrees");
  AG_CHECK(seq_labels == smp_result.labels, "simulated SMP SV disagrees");
  std::cout << "all three implementations agree (p=8):\n"
            << "  Cray MTA-2: " << mta->seconds() * 1e3 << " ms over "
            << mta_result.iterations << " SV iterations at "
            << 100.0 * mta->utilization() << "% utilization\n"
            << "  Sun SMP:    " << smp->seconds() * 1e3 << " ms over "
            << smp_result.iterations << " SV iterations at "
            << 100.0 * smp->utilization() << "% utilization\n\n";

  // --- component-size distribution ----------------------------------------
  std::map<NodeId, i64> size_of;
  for (const NodeId label : seq_labels) {
    ++size_of[label];
  }
  std::map<i64, i64> histogram;  // size -> how many components of that size
  i64 giant = 0;
  NodeId giant_label = 0;
  for (const auto& [label, size] : size_of) {
    ++histogram[size];
    if (size > giant) {
      giant = size;
      giant_label = label;
    }
  }
  Table t({"component size", "count"});
  int rows = 0;
  for (auto it = histogram.rbegin(); it != histogram.rend() && rows < 8;
       ++it, ++rows) {
    t.row().add(it->first).add(it->second);
  }
  std::cout << "components: " << size_of.size() << " total, largest covers "
            << 100.0 * static_cast<double>(giant) / static_cast<double>(n)
            << "% of vertices\n"
            << t << '\n';

  // --- spanning forest of the whole network --------------------------------
  // A BFS forest is a spanning forest: every non-root vertex contributes the
  // tree edge to its parent.
  const auto bfs_mta = sim::make_machine("mta:procs=8");
  const core::SimBfsResult forest = core::sim_bfs_tree_mta(*bfs_mta, g);
  AG_CHECK(graph::validate::is_bfs_forest(g, forest.parent, forest.level),
           "invalid BFS forest");
  i64 tree_edges = 0;
  i64 giant_tree_edges = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (forest.parent[static_cast<usize>(v)] == v) continue;
    ++tree_edges;
    if (seq_labels[static_cast<usize>(v)] == giant_label) {
      ++giant_tree_edges;
    }
  }
  std::cout << "BFS spanning forest (simulated MTA, p=8): " << tree_edges
            << " edges total over " << forest.components
            << " trees; the giant component's tree has " << giant_tree_edges
            << " edges (= size-1 = " << giant - 1 << ")\n";
  return 0;
}
