// Ligra/GBBS-style traversal data for simulator kernels.
//
// Graph kernels in core/kernels share three data shapes — a flat array of
// directed edge slots (the Shiloach–Vishkin scan), a CSR adjacency resident
// in simulated memory (traversal kernels), and a vertex frontier that is
// sparse (an unordered vertex list) or dense (process everything) depending
// on its size. This header holds those shapes. The edge_map / vertex_map
// loops over them are written inline in each kernel's own coroutine (one
// frame per simulated thread), claiming work with the simk building blocks
// (sim_par.hpp): MTA-style claim() chunks or SMP-style static blocks.
//
// Charging model (the kernels.hpp instruction-accounting convention: every
// load/store/fetch_add costs one issue slot inherently, ALU work is charged
// with compute(k)). Every kernel loop over these shapes charges:
//
//   * edge slots:        per slot, one load each for eu[i] and ev[i], then
//     the body's own charges. Claiming cost comes from the loop shape (one
//     fetch_add per dynamic chunk; free static blocks).
//   * neighbor scan:     per vertex, two loads for the CSR offset bounds and
//     one compute for the loop setup; per arc, one load for the target.
//   * sparse frontier:   per entry, one load for verts[i]; when consuming,
//     one store to re-arm the membership flag.
//   * dense frontier:    ignores membership and visits all n vertices, with
//     one store per vertex to clear the flag array (the dense bitmap rewrite
//     every dense edgeMap pays in Ligra).
//   * push:              one fetch_add on the membership flag (the dedup
//     claim) plus one compute to test it; winners pay one fetch_add on the
//     size cursor and one store of the vertex slot. Kernels whose visited
//     array already deduplicates (BFS) append without the flag claim.
//
// Host-side construction (EdgeSlots / SimCsr builders, Frontier::host_reset
// between parallel regions) costs nothing simulated, matching the existing
// convention that drivers stage inputs and reset counters host-side.
#pragma once

#include "common/types.hpp"
#include "graph/csr_graph.hpp"
#include "graph/edge_list.hpp"
#include "sim/machine.hpp"

namespace archgraph::core::frontier {

/// Both orientations of every undirected edge as flat eu/ev arrays — the 2m
/// directed slots Alg. 3 scans. Always at least one (neutralized u == v)
/// slot so static partitions of an empty graph stay well-formed.
struct EdgeSlots {
  EdgeSlots(sim::SimMemory& mem, const graph::EdgeList& graph);

  /// Array extent: max(2m, 1). Drivers that skip empty scans should test
  /// `edges > 0`, not `slots()`.
  i64 slots() const { return eu.size(); }

  sim::SimArray<i64> eu;
  sim::SimArray<i64> ev;
  i64 edges = 0;  // 2m real slots
};

/// CSR adjacency resident in simulated memory: offsets (n+1 words) and the
/// directed arc targets (max(arcs, 1) words), copied host-side at zero
/// simulated cost like every other kernel input.
struct SimCsr {
  SimCsr(sim::SimMemory& mem, const graph::CsrGraph& graph);

  sim::SimArray<i64> offsets;
  sim::SimArray<i64> targets;
  i64 n = 0;
  i64 arcs = 0;
};

/// A vertex frontier in simulated memory: an unordered sparse list
/// (verts[0..size)), a size cursor, and a per-vertex membership flag array
/// that deduplicates concurrent pushes. flags[v] != 0 iff v is in the
/// frontier and not yet consumed; consuming re-arms the flag with a store.
class Frontier {
 public:
  Frontier(sim::SimMemory& mem, i64 n);

  i64 n() const { return n_; }
  sim::Addr count_addr() const { return count_.addr(0); }
  sim::Addr vert_addr(i64 i) const { return verts_.addr(i); }
  sim::Addr flag_addr(i64 v) const { return flags_.addr(v); }
  const sim::SimArray<i64>& verts() const { return verts_; }
  const sim::SimArray<i64>& flags() const { return flags_; }

  // -- host side (zero simulated cost; only between parallel regions) --

  i64 host_size() const { return count_.get(0); }
  /// Resets the size cursor. The flag array must already be clear (every
  /// entry consumed, or never populated).
  void host_reset() { count_.set(0, 0); }
  /// Density-threshold switch: dense when size * denom >= n, i.e. at least
  /// 1/denom of the vertices are live (Ligra's |frontier| > n/20 test with
  /// denom as the knob).
  bool host_dense(i64 denom) const { return host_size() * denom >= n_; }
  static bool dense(i64 size, i64 n, i64 denom) { return size * denom >= n; }

 private:
  sim::SimArray<i64> verts_;
  sim::SimArray<i64> count_;
  sim::SimArray<i64> flags_;
  i64 n_ = 0;
};

}  // namespace archgraph::core::frontier
