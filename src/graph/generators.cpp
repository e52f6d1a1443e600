#include "graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"

namespace archgraph::graph {

namespace {

/// Canonical 64-bit key of an undirected vertex pair, for dedup sets.
u64 pair_key(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<u64>(u) << 32) | static_cast<u64>(v);
}

/// Insert-only set of pair keys for the generators' edge dedupe: one flat
/// open-addressing table of bit_ceil(2 x capacity) slots with linear
/// probing, so it stays at most half full. Key 0 marks an empty slot, which
/// is safe because pair_key(u, v) is 0 only for u == v == 0 and both
/// generators reject u == v before asking.
class PairSet {
 public:
  explicit PairSet(i64 capacity)
      : slots_(std::bit_ceil(static_cast<u64>(std::max<i64>(2 * capacity, 2)))),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// Inserts `key`; false if it was already present.
  bool insert(u64 key) {
    const u64 mask = slots_.size() - 1;
    // Fibonacci hashing: the product's top bits mix both endpoints.
    for (u64 i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == 0) {
        slots_[i] = key;
        return true;
      }
    }
  }

 private:
  std::vector<u64> slots_;
  int shift_;
};

}  // namespace

EdgeList random_graph(NodeId n, i64 m, u64 seed) {
  AG_CHECK(n >= 0 && m >= 0, "bad random_graph parameters");
  const double max_edges = 0.5 * static_cast<double>(n) *
                           static_cast<double>(n > 0 ? n - 1 : 0);
  AG_CHECK(static_cast<double>(m) <= max_edges,
           "more edges requested than a simple graph admits");
  AG_CHECK(n < (NodeId{1} << 32), "pair_key packs endpoints into 32 bits each");

  EdgeList g(n);
  g.reserve(m);
  Prng rng(seed);
  PairSet present(m);
  while (g.num_edges() < m) {
    const auto u = static_cast<NodeId>(rng.below(static_cast<u64>(n)));
    const auto v = static_cast<NodeId>(rng.below(static_cast<u64>(n)));
    if (u == v) continue;
    if (present.insert(pair_key(u, v))) {
      g.add_edge(u, v);
    }
  }
  return g;
}

EdgeList mesh2d(NodeId rows, NodeId cols) {
  AG_CHECK(rows >= 1 && cols >= 1, "mesh needs positive dimensions");
  EdgeList g(rows * cols);
  g.reserve(2 * rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

EdgeList path_graph(NodeId n) {
  EdgeList g(n);
  for (NodeId v = 0; v + 1 < n; ++v) {
    g.add_edge(v, v + 1);
  }
  return g;
}

EdgeList cycle_graph(NodeId n) {
  AG_CHECK(n >= 3, "a simple cycle needs at least 3 vertices");
  EdgeList g = path_graph(n);
  g.add_edge(n - 1, 0);
  return g;
}

EdgeList star_graph(NodeId n) {
  EdgeList g(n);
  for (NodeId v = 1; v < n; ++v) {
    g.add_edge(0, v);
  }
  return g;
}

EdgeList complete_graph(NodeId n) {
  EdgeList g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      g.add_edge(u, v);
    }
  }
  return g;
}

EdgeList binary_tree(NodeId n) {
  EdgeList g(n);
  for (NodeId v = 1; v < n; ++v) {
    g.add_edge((v - 1) / 2, v);
  }
  return g;
}

EdgeList rmat_graph(NodeId n, i64 m, double a, double b, double c, u64 seed) {
  AG_CHECK(n > 0 && (n & (n - 1)) == 0, "R-MAT needs a power-of-two n");
  const double d = 1.0 - a - b - c;
  AG_CHECK(a >= 0 && b >= 0 && c >= 0 && d >= 0, "R-MAT probabilities");
  const double max_edges = 0.5 * static_cast<double>(n) *
                           static_cast<double>(n - 1);
  AG_CHECK(static_cast<double>(m) <= 0.5 * max_edges,
           "R-MAT rejection sampling needs m well below the maximum");
  AG_CHECK(n < (NodeId{1} << 32), "pair_key packs endpoints into 32 bits each");

  EdgeList g(n);
  g.reserve(m);
  Prng rng(seed);
  PairSet present(m);
  while (g.num_edges() < m) {
    NodeId lo_u = 0, lo_v = 0;
    for (NodeId span = n; span > 1; span /= 2) {
      // Quadrants of the adjacency matrix: a=(top,left), b=(top,right),
      // c=(bottom,left), d=(bottom,right).
      const double r = rng.uniform();
      const bool down = r >= a + b;
      const bool right = (r >= a && r < a + b) || r >= a + b + c;
      lo_u += down ? span / 2 : 0;
      lo_v += right ? span / 2 : 0;
    }
    if (lo_u == lo_v) continue;
    if (present.insert(pair_key(lo_u, lo_v))) {
      g.add_edge(lo_u, lo_v);
    }
  }
  return g;
}

EdgeList random_tree(NodeId n, u64 seed) {
  AG_CHECK(n >= 1, "a tree needs at least one vertex");
  Prng rng(seed);
  const std::vector<NodeId> label = rng.permutation(n);
  EdgeList g(n);
  g.reserve(n - 1);
  for (NodeId v = 1; v < n; ++v) {
    const auto parent = static_cast<NodeId>(rng.below(static_cast<u64>(v)));
    g.add_edge(label[static_cast<usize>(parent)],
               label[static_cast<usize>(v)]);
  }
  return g;
}

EdgeList disjoint_random_graphs(NodeId n, i64 m, NodeId count, u64 seed) {
  AG_CHECK(count >= 1, "need at least one copy");
  EdgeList g(n * count);
  g.reserve(m * count);
  Prng seeder(seed);
  for (NodeId k = 0; k < count; ++k) {
    g.append_shifted(random_graph(n, m, seeder()), k * n);
  }
  return g;
}

}  // namespace archgraph::graph
