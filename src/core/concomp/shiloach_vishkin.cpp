#include <atomic>

#include "common/check.hpp"
#include "core/concomp/concomp.hpp"
#include "rt/parallel_for.hpp"

namespace archgraph::core {

// Native Shiloach–Vishkin in the streamlined form of the paper's Alg. 3:
// each iteration grafts the root of the larger-labeled endpoint onto the
// smaller label, then fully shortcuts every tree into a star — which makes
// the separate star-check of Alg. 2 unnecessary. Races on D are benign for
// convergence (labels only decrease and every write stores a currently valid
// label), so relaxed atomics suffice; the algorithm terminates when an
// iteration performs no graft.
std::vector<NodeId> cc_shiloach_vishkin(rt::ThreadPool& pool,
                                        const graph::EdgeList& graph,
                                        SvStats* stats) {
  const NodeId n = graph.num_vertices();
  const i64 m = graph.num_edges();
  std::vector<std::atomic<NodeId>> d(static_cast<usize>(n));
  rt::parallel_for(pool, 0, n, rt::Schedule::Static, 1, [&](i64 i) {
    d[static_cast<usize>(i)].store(i, std::memory_order_relaxed);
  });

  auto load = [&](NodeId v) {
    return d[static_cast<usize>(v)].load(std::memory_order_relaxed);
  };

  i64 iterations = 0;
  i64 total_grafts = 0;
  std::atomic<bool> grafted{true};
  while (grafted.load()) {
    grafted.store(false, std::memory_order_relaxed);
    ++iterations;
    std::atomic<i64> grafts{0};

    // Graft: scan both orientations of every edge, as the MTA code's loop
    // over 2m directed slots does. (Guarded: slot % m below needs m > 0.)
    rt::parallel_for(pool, 0, m > 0 ? 2 * m : 0, rt::Schedule::Static, 1,
                     [&](i64 slot) {
      const graph::Edge& e = graph.edge(slot % m);
      const NodeId u = slot < m ? e.u : e.v;
      const NodeId v = slot < m ? e.v : e.u;
      const NodeId du = load(u);
      NodeId dv = load(v);
      // Only the winner of a race for root dv counts its graft, so the
      // count is exactly the number of roots that stopped being roots.
      if (du < dv && d[static_cast<usize>(dv)].compare_exchange_strong(
                         dv, du, std::memory_order_relaxed)) {
        grafted.store(true, std::memory_order_relaxed);
        grafts.fetch_add(1, std::memory_order_relaxed);
      }
    });

    // Shortcut every vertex all the way to its root (pointer jumping until
    // the fixed point, like Alg. 3's inner while).
    rt::parallel_for(pool, 0, n, rt::Schedule::Static, 1, [&](i64 i) {
      NodeId cur = load(static_cast<NodeId>(i));
      while (cur != load(cur)) {
        cur = load(cur);
      }
      d[static_cast<usize>(i)].store(cur, std::memory_order_relaxed);
    });

    total_grafts += grafts.load();
    AG_CHECK(iterations <= 4 * (n + 2),
             "Shiloach-Vishkin failed to converge — broken invariant");
  }

  std::vector<NodeId> labels(static_cast<usize>(n));
  for (NodeId v = 0; v < n; ++v) {
    // The shortcut pass left d as a fixed point, but a graft that raced with
    // the final shortcut could leave one level of indirection; resolve it.
    NodeId cur = load(v);
    while (cur != load(cur)) {
      cur = load(cur);
    }
    labels[static_cast<usize>(v)] = cur;
  }
  normalize_labels(labels);
  if (stats != nullptr) {
    stats->iterations = iterations;
    stats->grafts = total_grafts;
  }
  return labels;
}

}  // namespace archgraph::core
