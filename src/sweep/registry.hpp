// The sweep engine's kernel registry: every simulator kernel the paper's
// evaluation exercises, addressable by name, with a uniform run signature so
// the executor (and the CLIs' --list / error messages) need no per-kernel
// code. New kernels appear in sweeps and listings by adding one entry here.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/linked_list.hpp"
#include "sim/machine.hpp"
#include "sweep/spec.hpp"

namespace archgraph::sweep {

/// What a kernel consumes; the executor builds the matching input from the
/// cell's layout/n/m/seed axes.
enum class InputKind : u8 { kList, kGraph };

/// A generated input; exactly the member matching the kernel's InputKind is
/// populated.
struct KernelInput {
  graph::LinkedList list;
  graph::EdgeList graph;
};

struct KernelRun {
  /// Iteration count for iterative kernels (Shiloach–Vishkin), else -1.
  i64 iterations = -1;
  /// True when the kernel's answer was checked against the native reference
  /// (rank_sequential / cc_union_find). A failed check throws.
  bool verified = false;
};

struct KernelInfo {
  std::string name;
  std::string description;
  InputKind input = InputKind::kList;
  /// Runs the kernel on `machine`; when `verify`, self-checks the answer
  /// and, while a TraceSession is installed, adds the checked answer's
  /// counters after the kernel's own (cc.components, color.palette,
  /// bfs.depth).
  std::function<KernelRun(sim::Machine&, const KernelInput&, bool verify)> run;
};

/// All registered kernels, in listing order.
const std::vector<KernelInfo>& kernel_registry();

/// Registered names, in listing order.
std::vector<std::string> kernel_names();

/// Registered names joined with ", " — for usage/error text that enumerates
/// the kernel axis, derived from the registry so it cannot drift.
std::string kernel_names_joined();

/// One line per registered kernel, in registry order — "  name  description"
/// with names padded to a uniform column. Shared by `archgraph_cli --list`
/// and `archgraph_sweep --list` so the two tools cannot disagree.
std::string kernel_listing();

/// Lookup; throws std::logic_error naming the unknown kernel and listing the
/// valid ones.
const KernelInfo& find_kernel(std::string_view name);

/// The seed actually used for a cell: the cell's own when non-zero, else the
/// bench convention (n*7919 for list inputs, m*31+17 for graph inputs).
u64 resolved_seed(const KernelInfo& kernel, const SweepCell& cell);

/// The edge count actually used for a graph cell: the cell's own when
/// non-zero, else 4n. Always 0 for list kernels.
i64 resolved_m(const KernelInfo& kernel, const SweepCell& cell);

/// Builds the kernel's input for a cell (deterministic in the cell).
KernelInput make_input(const KernelInfo& kernel, const SweepCell& cell);

}  // namespace archgraph::sweep
