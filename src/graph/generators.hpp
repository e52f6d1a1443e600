// Graph generators.
//
// `random_graph` reproduces the paper's §5 workload: "we create a random graph
// of n vertices and m edges by randomly adding m unique edges to the vertex
// set" (LEDA-style G(n,m) without self-loops or duplicates). The mesh
// generator reproduces a topology of the DIMACS-challenge studies the paper
// compares against (Krishnamurthy et al. saw speedup on 2D/3D meshes but not
// on sparse random graphs); the structured families are mainly test and
// ablation inputs.
#pragma once

#include "common/types.hpp"
#include "graph/edge_list.hpp"

namespace archgraph::graph {

/// Uniform random simple graph with exactly `m` distinct non-loop edges.
/// Requires m <= n*(n-1)/2. Deterministic in `seed`.
EdgeList random_graph(NodeId n, i64 m, u64 seed);

/// 2D grid: rows x cols vertices, 4-neighbor connectivity.
EdgeList mesh2d(NodeId rows, NodeId cols);

/// Simple path 0-1-2-...-(n-1).
EdgeList path_graph(NodeId n);

/// Cycle through all n vertices (n >= 3).
EdgeList cycle_graph(NodeId n);

/// Star: vertex 0 connected to all others.
EdgeList star_graph(NodeId n);

/// Complete graph K_n (test sizes only).
EdgeList complete_graph(NodeId n);

/// Complete binary tree with n vertices, vertex i's children 2i+1, 2i+2.
EdgeList binary_tree(NodeId n);

/// R-MAT recursive-matrix graph (Chakrabarti et al.); duplicate edges and
/// self-loops are discarded and re-drawn, so exactly m distinct edges result.
/// Gives the skewed degree distributions used in the scheduling ablation.
EdgeList rmat_graph(NodeId n, i64 m, double a, double b, double c, u64 seed);

/// Disjoint union of `count` copies of random_graph(n, m, ...) — a graph with
/// a known number of components (assuming each copy is connected this equals
/// `count`; validators do not assume that).
EdgeList disjoint_random_graphs(NodeId n, i64 m, NodeId count, u64 seed);

/// Uniform random recursive tree: vertex i attaches to a uniform ancestor in
/// {0..i-1}, then vertex labels are permuted so structure does not leak into
/// ids. n-1 edges, connected, acyclic.
EdgeList random_tree(NodeId n, u64 seed);

}  // namespace archgraph::graph
