#include "core/kernels/frontier.hpp"

#include <algorithm>

namespace archgraph::core::frontier {

EdgeSlots::EdgeSlots(sim::SimMemory& mem, const graph::EdgeList& graph)
    : eu(mem, std::max<i64>(2 * graph.num_edges(), 1)),
      ev(mem, std::max<i64>(2 * graph.num_edges(), 1)),
      edges(2 * graph.num_edges()) {
  const i64 m = graph.num_edges();
  for (i64 i = 0; i < m; ++i) {
    const graph::Edge& e = graph.edge(i);
    eu.set(i, e.u);
    ev.set(i, e.v);
    eu.set(m + i, e.v);
    ev.set(m + i, e.u);
  }
  if (m == 0) {
    // The dummy slot must not graft / traverse: u == v is a no-op everywhere.
    eu.set(0, 0);
    ev.set(0, 0);
  }
}

SimCsr::SimCsr(sim::SimMemory& mem, const graph::CsrGraph& graph)
    : offsets(mem, static_cast<i64>(graph.num_vertices()) + 1),
      targets(mem, std::max<i64>(graph.num_arcs(), 1)),
      n(graph.num_vertices()),
      arcs(graph.num_arcs()) {
  i64 off = 0;
  offsets.set(0, 0);
  for (NodeId v = 0; v < graph.num_vertices(); ++v) {
    for (const NodeId t : graph.neighbors(v)) {
      targets.set(off++, t);
    }
    offsets.set(static_cast<i64>(v) + 1, off);
  }
}

Frontier::Frontier(sim::SimMemory& mem, i64 n)
    : verts_(mem, std::max<i64>(n, 1)),
      count_(mem, 1),
      flags_(mem, std::max<i64>(n, 1)),
      n_(n) {
  count_.set(0, 0);
}

}  // namespace archgraph::core::frontier
