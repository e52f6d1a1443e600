#include "core/concomp/concomp.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace archgraph::core {
namespace {

using graph::CsrGraph;
using graph::EdgeList;

EdgeList two_triangles_and_isolated() {
  EdgeList g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  // vertex 6 isolated
  return g;
}

TEST(CcUnionFind, LabelsKnownComponents) {
  const auto labels = cc_union_find(two_triangles_and_isolated());
  EXPECT_EQ(labels, (std::vector<NodeId>{0, 0, 0, 3, 3, 3, 6}));
}

TEST(CcUnionFind, EmptyAndSingletonGraphs) {
  EXPECT_TRUE(cc_union_find(EdgeList(0)).empty());
  EXPECT_EQ(cc_union_find(EdgeList(1)), (std::vector<NodeId>{0}));
}

TEST(CcUnionFind, SelfLoopsAreHarmless) {
  EdgeList g(3);
  g.add_edge(0, 0);
  g.add_edge(1, 2);
  EXPECT_EQ(cc_union_find(g), (std::vector<NodeId>{0, 1, 1}));
}

TEST(CcBfsAndDfs, MatchUnionFind) {
  const EdgeList g = graph::random_graph(300, 450, 3);
  const auto truth = cc_union_find(g);
  const CsrGraph csr = CsrGraph::from_edges(g);
  EXPECT_EQ(cc_bfs(csr), truth);
  EXPECT_EQ(cc_dfs(csr), truth);
}

TEST(NormalizeLabels, PicksSmallestMember) {
  std::vector<NodeId> labels{3, 3, 3, 3, 4, 4};
  // Representative must be a fixed point: here 3 and 4 are.
  normalize_labels(labels);
  EXPECT_EQ(labels, (std::vector<NodeId>{0, 0, 0, 0, 4, 4}));
}

TEST(NormalizeLabels, RejectsNonFixedPoint) {
  std::vector<NodeId> labels{1, 1, 2};  // labels[1] = 1, labels[2] = 2: fixed
  EXPECT_NO_THROW(normalize_labels(labels));
  std::vector<NodeId> bad{1, 0};  // labels[labels[0]] = labels[1] = 0 != 1
  EXPECT_THROW(normalize_labels(bad), std::logic_error);
}

}  // namespace
}  // namespace archgraph::core
