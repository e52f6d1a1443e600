#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/csr_graph.hpp"
#include "graph/validate.hpp"

namespace archgraph::graph {
namespace {

TEST(RandomGraph, ExactEdgeCountAndSimple) {
  const EdgeList g = random_graph(100, 400, 1);
  EXPECT_EQ(g.num_vertices(), 100);
  EXPECT_EQ(g.num_edges(), 400);
  EXPECT_TRUE(validate::is_simple(g));
}

TEST(RandomGraph, DeterministicInSeed) {
  const EdgeList a = random_graph(50, 100, 7);
  const EdgeList b = random_graph(50, 100, 7);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (i64 i = 0; i < a.num_edges(); ++i) {
    EXPECT_EQ(a.edge(i), b.edge(i));
  }
}

TEST(RandomGraph, DifferentSeedsDiffer) {
  const EdgeList a = random_graph(50, 100, 1);
  const EdgeList b = random_graph(50, 100, 2);
  bool any_differ = false;
  for (i64 i = 0; i < a.num_edges(); ++i) {
    any_differ |= !(a.edge(i) == b.edge(i));
  }
  EXPECT_TRUE(any_differ);
}

TEST(RandomGraph, CompleteGraphEdgeBudget) {
  // Asking for the maximum works; one more throws.
  const EdgeList g = random_graph(5, 10, 3);
  EXPECT_EQ(g.num_edges(), 10);
  EXPECT_THROW(random_graph(5, 11, 3), std::logic_error);
}

TEST(RandomGraph, ZeroEdges) {
  const EdgeList g = random_graph(10, 0, 5);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(Mesh2d, EdgeCount) {
  const EdgeList g = mesh2d(4, 5);
  EXPECT_EQ(g.num_vertices(), 20);
  // rows*(cols-1) horizontal + (rows-1)*cols vertical
  EXPECT_EQ(g.num_edges(), 4 * 4 + 3 * 5);
  EXPECT_TRUE(validate::is_simple(g));
}

TEST(StructuredFamilies, Counts) {
  EXPECT_EQ(path_graph(10).num_edges(), 9);
  EXPECT_EQ(cycle_graph(10).num_edges(), 10);
  EXPECT_EQ(star_graph(10).num_edges(), 9);
  EXPECT_EQ(complete_graph(6).num_edges(), 15);
  EXPECT_EQ(binary_tree(15).num_edges(), 14);
}

TEST(StructuredFamilies, SingleVertexEdgeCases) {
  EXPECT_EQ(path_graph(1).num_edges(), 0);
  EXPECT_EQ(star_graph(1).num_edges(), 0);
  EXPECT_EQ(binary_tree(1).num_edges(), 0);
  EXPECT_THROW(cycle_graph(2), std::logic_error);
}

TEST(RmatGraph, ExactEdgeCountSimpleAndDeterministic) {
  const EdgeList a = rmat_graph(64, 256, 0.45, 0.25, 0.15, 11);
  EXPECT_EQ(a.num_edges(), 256);
  EXPECT_TRUE(validate::is_simple(a));
  const EdgeList b = rmat_graph(64, 256, 0.45, 0.25, 0.15, 11);
  for (i64 i = 0; i < a.num_edges(); ++i) {
    EXPECT_EQ(a.edge(i), b.edge(i));
  }
}

TEST(RmatGraph, RequiresPowerOfTwo) {
  EXPECT_THROW(rmat_graph(100, 50, 0.45, 0.25, 0.15, 1), std::logic_error);
}

TEST(RmatGraph, SkewedParametersConcentrateDegree) {
  // With a heavily skewed matrix, low-numbered vertices should carry far
  // more than their uniform share of endpoints.
  const EdgeList g = rmat_graph(1024, 4096, 0.7, 0.1, 0.1, 5);
  i64 low_endpoints = 0;
  for (const Edge& e : g.edges()) {
    low_endpoints += (e.u < 128) + (e.v < 128);
  }
  // Uniform share would be 2*4096/8 = 1024.
  EXPECT_GT(low_endpoints, 2048);
}

/// FNV-1a (64-bit) over every edge's endpoints in list order, so two edge
/// lists hash equal only if they hold the same edges in the same order.
u64 edge_hash(const EdgeList& g) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const Edge& e : g.edges()) {
    for (const NodeId x : {e.u, e.v}) {
      auto bits = static_cast<u64>(x);
      for (int byte = 0; byte < 8; ++byte, bits >>= 8) {
        h = (h ^ (bits & 0xff)) * 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// Pinned from the generators as they stood before the dedupe set changed
// representation: the set answers membership only, so the draws, and with
// them every edge list, must not move.
TEST(GeneratorPins, RandomGraphEdgeListIsPinned) {
  const EdgeList g = random_graph(8192, 163840, 1);
  ASSERT_EQ(g.num_edges(), 163840);
  EXPECT_EQ(edge_hash(g), 0x33421deed441f00dULL);
}

TEST(GeneratorPins, RmatGraphEdgeListIsPinned) {
  const EdgeList g = rmat_graph(8192, 32768, 0.55, 0.2, 0.15, 7);
  ASSERT_EQ(g.num_edges(), 32768);
  EXPECT_EQ(edge_hash(g), 0x8c95c8cdfb55c62bULL);
}

TEST(RandomTree, IsATree) {
  for (u64 seed = 0; seed < 5; ++seed) {
    const EdgeList t = random_tree(100, seed);
    EXPECT_EQ(t.num_edges(), 99);
    EXPECT_TRUE(validate::is_simple(t));
    // n-1 simple edges + connected (BFS reaches everything) => a tree.
    const CsrGraph csr = CsrGraph::from_edges(t);
    std::vector<bool> seen(100, false);
    std::vector<NodeId> stack{0};
    seen[0] = true;
    usize visited = 1;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (const NodeId w : csr.neighbors(v)) {
        if (!seen[static_cast<usize>(w)]) {
          seen[static_cast<usize>(w)] = true;
          ++visited;
          stack.push_back(w);
        }
      }
    }
    EXPECT_EQ(visited, 100u) << "seed " << seed;
  }
}

TEST(RandomTree, SingleVertexAndDeterminism) {
  EXPECT_EQ(random_tree(1, 0).num_edges(), 0);
  const EdgeList a = random_tree(50, 9);
  const EdgeList b = random_tree(50, 9);
  for (i64 i = 0; i < a.num_edges(); ++i) {
    EXPECT_EQ(a.edge(i), b.edge(i));
  }
}

TEST(DisjointRandomGraphs, BuildsIsolatedCopies) {
  const EdgeList g = disjoint_random_graphs(10, 20, 4, 17);
  EXPECT_EQ(g.num_vertices(), 40);
  EXPECT_EQ(g.num_edges(), 80);
  // No edge crosses a copy boundary.
  for (const Edge& e : g.edges()) {
    EXPECT_EQ(e.u / 10, e.v / 10);
  }
}

class RandomGraphSweep : public ::testing::TestWithParam<std::tuple<i64, i64>> {
};

TEST_P(RandomGraphSweep, AlwaysSimpleWithExactCount) {
  const auto [n, m] = GetParam();
  const EdgeList g = random_graph(n, m, static_cast<u64>(n * 31 + m));
  EXPECT_EQ(g.num_edges(), m);
  EXPECT_TRUE(validate::is_simple(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomGraphSweep,
    ::testing::Values(std::tuple<i64, i64>{1, 0}, std::tuple<i64, i64>{2, 1},
                      std::tuple<i64, i64>{16, 16},
                      std::tuple<i64, i64>{128, 512},
                      std::tuple<i64, i64>{1000, 5000},
                      std::tuple<i64, i64>{4096, 4096}));

}  // namespace
}  // namespace archgraph::graph
