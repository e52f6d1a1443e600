#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/prng.hpp"
#include "graph/generators.hpp"

namespace archgraph::graph {
namespace {

TEST(DimacsIo, ParsesMinimalGraph) {
  std::istringstream in(
      "c a comment\n"
      "p edge 4 2\n"
      "e 1 2\n"
      "e 3 4\n");
  const DimacsGraph g = read_dimacs(in);
  EXPECT_EQ(g.edges.num_vertices(), 4);
  EXPECT_EQ(g.edges.num_edges(), 2);
  EXPECT_EQ(g.edges.edge(0), (Edge{0, 1}));
  EXPECT_EQ(g.edges.edge(1), (Edge{2, 3}));
  EXPECT_FALSE(g.weights.has_value());
}

TEST(DimacsIo, ParsesWeights) {
  std::istringstream in("p edge 3 2\ne 1 2 10\ne 2 3 -4\n");
  const DimacsGraph g = read_dimacs(in);
  ASSERT_TRUE(g.weights.has_value());
  EXPECT_EQ(*g.weights, (std::vector<i64>{10, -4}));
}

TEST(DimacsIo, SkipsBlankAndCommentLines) {
  std::istringstream in("\nc x\np edge 2 1\n\nc y\ne 1 2\n");
  EXPECT_EQ(read_dimacs(in).edges.num_edges(), 1);
}

TEST(DimacsIo, RejectsMalformedInputs) {
  auto expect_bad = [](const std::string& text, const char* what) {
    std::istringstream in(text);
    EXPECT_THROW(read_dimacs(in), std::logic_error) << what;
  };
  expect_bad("e 1 2\n", "edge before header");
  expect_bad("p edge 2 1\np edge 2 1\ne 1 2\n", "duplicate header");
  expect_bad("p edge 2 2\ne 1 2\n", "edge count mismatch");
  expect_bad("p edge 2 1\ne 0 2\n", "0-based id");
  expect_bad("p edge 2 1\ne 1 3\n", "id out of range");
  expect_bad("p edge 2 1\nx 1 2\n", "unknown line kind");
  expect_bad("p edge 2 2\ne 1 2 5\ne 1 2\n", "mixed weighted/unweighted");
  expect_bad("p foo 2 1\ne 1 2\n", "wrong format tag");
  expect_bad("", "empty input");
}

TEST(DimacsIo, RoundTripsRandomGraph) {
  const EdgeList g = random_graph(60, 200, 5);
  std::ostringstream out;
  write_dimacs(out, g, nullptr, "round trip");
  std::istringstream in(out.str());
  const DimacsGraph back = read_dimacs(in);
  ASSERT_EQ(back.edges.num_edges(), g.num_edges());
  EXPECT_EQ(back.edges.num_vertices(), g.num_vertices());
  for (i64 i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(back.edges.edge(i), g.edge(i));
  }
  EXPECT_FALSE(back.weights.has_value());
}

TEST(DimacsIo, RoundTripsWeights) {
  const EdgeList g = random_graph(30, 80, 6);
  Prng rng(7);
  std::vector<i64> w(static_cast<usize>(g.num_edges()));
  for (i64& x : w) x = rng.range(-1000, 1000);
  std::ostringstream out;
  write_dimacs(out, g, &w);
  std::istringstream in(out.str());
  const DimacsGraph back = read_dimacs(in);
  ASSERT_TRUE(back.weights.has_value());
  EXPECT_EQ(*back.weights, w);
}

TEST(DimacsIo, FileRoundTrip) {
  const EdgeList g = mesh2d(5, 5);
  const std::string path = ::testing::TempDir() + "/archgraph_io_test.dimacs";
  write_dimacs_file(path, g);
  const DimacsGraph back = read_dimacs_file(path);
  EXPECT_EQ(back.edges.num_edges(), g.num_edges());
}

TEST(DimacsIo, MissingFileThrows) {
  EXPECT_THROW(read_dimacs_file("/nonexistent/x.dimacs"), std::logic_error);
}

TEST(DimacsIo, WriterRejectsWeightMismatch) {
  const EdgeList g = path_graph(4);
  const std::vector<i64> wrong{1, 2};
  std::ostringstream out;
  EXPECT_THROW(write_dimacs(out, g, &wrong), std::logic_error);
}

}  // namespace
}  // namespace archgraph::graph
