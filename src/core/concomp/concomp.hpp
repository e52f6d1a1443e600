// Connected components — sequential host references.
//
// The paper's second kernel. Labels are representative vertex ids: two
// vertices get equal labels iff they are connected. All implementations
// normalize so each component is labeled by its smallest member, making
// outputs directly comparable.
//
//   * cc_union_find  — the "best sequential implementation" baseline the
//                      paper measures speedup against (union by size + path
//                      halving).
//   * cc_bfs, cc_dfs — traversal baselines over CSR (the DEC-Alpha DFS in
//                      Greiner's study is the classic comparator), and the
//                      oracle for cc_union_find.
//
// The parallel Shiloach–Vishkin kernels (Alg. 2/3 of the paper) run on the
// simulated machines and live in core/kernels/.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"

namespace archgraph::core {

/// Union-find with union-by-size and path halving; labels normalized to the
/// minimum vertex per component. O(m α(n)).
std::vector<NodeId> cc_union_find(const graph::EdgeList& graph);

/// BFS over CSR adjacency. O(n + m).
std::vector<NodeId> cc_bfs(const graph::CsrGraph& graph);

/// Iterative DFS over CSR adjacency. O(n + m).
std::vector<NodeId> cc_dfs(const graph::CsrGraph& graph);

/// Normalizes arbitrary representative labels to min-vertex-per-component.
/// Requires labels to be a fixed point (label[label[v]] == label[v]).
void normalize_labels(std::vector<NodeId>& labels);

/// First-fit greedy coloring in vertex-id order: color[v] is the smallest
/// color unused by already-colored (lower-id) neighbors. O(n + m). This is
/// the unique fixed point of the simulated speculative-coloring kernels
/// (Jones–Plassmann with vertex-id priorities), so sim results are asserted
/// equal to it, not merely proper.
std::vector<i64> color_greedy_seq(const graph::CsrGraph& graph);

/// A BFS spanning forest: parents, levels, and the component count.
struct BfsForest {
  std::vector<NodeId> parent;  // parent[root] == root
  std::vector<i64> level;      // BFS distance from the component's root
  i64 components = 0;
};

/// Sequential BFS spanning forest: roots are the smallest unvisited vertex,
/// FIFO frontier, neighbors in CSR order. Levels are exact BFS distances —
/// the schedule-independent part every simulated BFS must reproduce; parents
/// are one valid tree among many. O(n + m).
BfsForest bfs_tree_seq(const graph::CsrGraph& graph);

}  // namespace archgraph::core
