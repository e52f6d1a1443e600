#include "sweep/registry.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "core/concomp/concomp.hpp"
#include "core/kernels/kernels.hpp"
#include "core/listrank/listrank.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "graph/validate.hpp"
#include "obs/trace.hpp"

namespace archgraph::sweep {

namespace {

/// Largest element of `values`, or `empty` when there is none.
i64 max_or(const std::vector<i64>& values, i64 empty) {
  return values.empty() ? empty
                        : *std::max_element(values.begin(), values.end());
}

/// Wraps a list-ranking kernel: run, then (optionally) check against the
/// native sequential ranking.
template <typename F>
KernelInfo list_kernel(std::string name, std::string description, F&& fn) {
  KernelInfo info;
  info.name = std::move(name);
  info.description = std::move(description);
  info.input = InputKind::kList;
  info.run = [fn](sim::Machine& machine, const KernelInput& input,
                  bool verify) {
    const std::vector<i64> ranks = fn(machine, input.list);
    KernelRun run;
    if (verify) {
      AG_CHECK(ranks == core::rank_sequential(input.list),
               "sweep kernel self-check failed (list ranking)");
      run.verified = true;
    }
    return run;
  };
  return info;
}

/// Wraps a connected-components kernel returning SimCcResult.
template <typename F>
KernelInfo cc_kernel(std::string name, std::string description, F&& fn) {
  KernelInfo info;
  info.name = std::move(name);
  info.description = std::move(description);
  info.input = InputKind::kGraph;
  info.run = [fn](sim::Machine& machine, const KernelInput& input,
                  bool verify) {
    const core::SimCcResult result = fn(machine, input.graph);
    KernelRun run;
    run.iterations = result.iterations;
    if (verify) {
      AG_CHECK(result.labels == core::cc_union_find(input.graph),
               "sweep kernel self-check failed (connected components)");
      run.verified = true;
      if (obs::TraceSession::current() != nullptr) {
        obs::counter_add("cc.components",
                         graph::validate::count_distinct_labels(result.labels));
      }
    }
    return run;
  };
  return info;
}

/// Wraps a greedy-coloring kernel returning SimColorResult. Verification is
/// exact: the speculative kernels' fixed point is the sequential first-fit
/// coloring, so the colors must equal color_greedy_seq (and be proper).
template <typename F>
KernelInfo color_kernel(std::string name, std::string description, F&& fn) {
  KernelInfo info;
  info.name = std::move(name);
  info.description = std::move(description);
  info.input = InputKind::kGraph;
  info.run = [fn](sim::Machine& machine, const KernelInput& input,
                  bool verify) {
    const core::SimColorResult result = fn(machine, input.graph);
    KernelRun run;
    run.iterations = result.rounds;
    if (verify) {
      AG_CHECK(graph::validate::is_proper_coloring(input.graph, result.colors),
               "sweep kernel self-check failed (coloring not proper)");
      AG_CHECK(result.colors == core::color_greedy_seq(
                                    graph::CsrGraph::from_edges(input.graph)),
               "sweep kernel self-check failed (coloring != greedy)");
      run.verified = true;
      if (obs::TraceSession::current() != nullptr) {
        obs::counter_add("color.palette", max_or(result.colors, -1) + 1);
      }
    }
    return run;
  };
  return info;
}

/// Wraps a BFS spanning-forest kernel returning SimBfsResult. Levels are
/// schedule-independent (exact BFS distances) and checked for equality
/// against bfs_tree_seq; parents are race-resolved and checked structurally.
template <typename F>
KernelInfo bfs_kernel(std::string name, std::string description, F&& fn) {
  KernelInfo info;
  info.name = std::move(name);
  info.description = std::move(description);
  info.input = InputKind::kGraph;
  info.run = [fn](sim::Machine& machine, const KernelInput& input,
                  bool verify) {
    const core::SimBfsResult result = fn(machine, input.graph);
    KernelRun run;
    run.iterations = result.rounds;
    if (verify) {
      AG_CHECK(
          graph::validate::is_bfs_forest(input.graph, result.parent,
                                         result.level),
          "sweep kernel self-check failed (BFS forest)");
      AG_CHECK(result.level == core::bfs_tree_seq(
                                   graph::CsrGraph::from_edges(input.graph))
                                   .level,
               "sweep kernel self-check failed (BFS levels)");
      run.verified = true;
      if (obs::TraceSession::current() != nullptr) {
        obs::counter_add("bfs.depth", max_or(result.level, 0));
      }
    }
    return run;
  };
  return info;
}

std::vector<KernelInfo> build_registry() {
  std::vector<KernelInfo> kernels;
  kernels.push_back(list_kernel(
      "lr_walk", "list ranking, the paper's Alg. 1 walk code (MTA style)",
      [](sim::Machine& m, const graph::LinkedList& l) {
        return core::sim_rank_list_walk(m, l);
      }));
  kernels.push_back(list_kernel(
      "lr_hj", "list ranking, Helman-JaJa (SMP style)",
      [](sim::Machine& m, const graph::LinkedList& l) {
        return core::sim_rank_list_hj(m, l);
      }));
  kernels.push_back(list_kernel(
      "lr_wyllie", "list ranking, Wyllie pointer jumping (PRAM baseline)",
      [](sim::Machine& m, const graph::LinkedList& l) {
        return core::sim_rank_list_wyllie(m, l);
      }));
  kernels.push_back(list_kernel(
      "lr_seq", "list ranking, best-sequential pointer chase (baseline)",
      [](sim::Machine& m, const graph::LinkedList& l) {
        return core::sim_rank_list_sequential(m, l);
      }));
  kernels.push_back(cc_kernel(
      "cc_sv_mta",
      "connected components, Shiloach-Vishkin as a PRAM translation "
      "(MTA style)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        return core::sim_cc_sv_mta(m, g);
      }));
  kernels.push_back(cc_kernel(
      "cc_sv_smp",
      "connected components, barrier-separated Shiloach-Vishkin (SMP style)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        return core::sim_cc_sv_smp(m, g);
      }));
  kernels.push_back(cc_kernel(
      "cc_uf_seq",
      "connected components, best-sequential union-find (baseline)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        // -1: a sequential pass has no iteration count.
        return core::SimCcResult{core::sim_cc_union_find_sequential(m, g), -1};
      }));
  kernels.push_back(color_kernel(
      "color_greedy_mta",
      "greedy coloring, speculative recolor rounds (MTA style)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        return core::sim_color_greedy_mta(m, g);
      }));
  kernels.push_back(color_kernel(
      "color_greedy_smp",
      "greedy coloring, barrier-separated recolor rounds (SMP style)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        return core::sim_color_greedy_smp(m, g);
      }));
  kernels.push_back(color_kernel(
      "color_greedy_mta_ba",
      "greedy coloring, branch-avoiding inner loop (MTA style)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        core::MtaColorParams params;
        params.branch_avoiding = true;
        return core::sim_color_greedy_mta(m, g, params);
      }));
  kernels.push_back(color_kernel(
      "color_greedy_smp_ba",
      "greedy coloring, branch-avoiding inner loop (SMP style)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        core::SmpColorParams params;
        params.branch_avoiding = true;
        return core::sim_color_greedy_smp(m, g, params);
      }));
  kernels.push_back(bfs_kernel(
      "bfs_tree_mta",
      "BFS spanning forest, level frontiers (MTA style)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        return core::sim_bfs_tree_mta(m, g);
      }));
  kernels.push_back(bfs_kernel(
      "bfs_tree_smp",
      "BFS spanning forest, barrier-separated levels (SMP style)",
      [](sim::Machine& m, const graph::EdgeList& g) {
        return core::sim_bfs_tree_smp(m, g);
      }));
  return kernels;
}

}  // namespace

const std::vector<KernelInfo>& kernel_registry() {
  static const std::vector<KernelInfo> kernels = build_registry();
  return kernels;
}

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const KernelInfo& k : kernel_registry()) {
    names.push_back(k.name);
  }
  return names;
}

std::string kernel_names_joined() {
  std::string joined;
  for (const KernelInfo& k : kernel_registry()) {
    if (!joined.empty()) joined += ", ";
    joined += k.name;
  }
  return joined;
}

std::string kernel_listing() {
  usize width = 0;
  for (const KernelInfo& k : kernel_registry()) {
    width = std::max(width, k.name.size());
  }
  std::string listing;
  for (const KernelInfo& k : kernel_registry()) {
    listing += "  " + k.name;
    listing.append(width - k.name.size() + 2, ' ');
    listing += k.input == InputKind::kList ? "[list]  " : "[graph] ";
    listing += k.description + "\n";
  }
  return listing;
}

const KernelInfo& find_kernel(std::string_view name) {
  for (const KernelInfo& k : kernel_registry()) {
    if (k.name == name) return k;
  }
  AG_CHECK(false, "unknown sweep kernel '" + std::string(name) +
                      "' (valid: " + kernel_names_joined() + ")");
  return kernel_registry().front();  // unreachable
}

u64 resolved_seed(const KernelInfo& kernel, const SweepCell& cell) {
  if (cell.seed != 0) return cell.seed;
  if (kernel.input == InputKind::kList) {
    return static_cast<u64>(cell.n) * 7919;
  }
  return static_cast<u64>(resolved_m(kernel, cell)) * 31 + 17;
}

i64 resolved_m(const KernelInfo& kernel, const SweepCell& cell) {
  if (kernel.input == InputKind::kList) return 0;
  return cell.m != 0 ? cell.m : 4 * cell.n;
}

KernelInput make_input(const KernelInfo& kernel, const SweepCell& cell) {
  KernelInput input;
  const u64 seed = resolved_seed(kernel, cell);
  if (kernel.input == InputKind::kList) {
    input.list = cell.layout == Layout::kOrdered
                     ? graph::ordered_list(cell.n)
                     : graph::random_list(cell.n, seed);
  } else {
    input.graph = graph::random_graph(cell.n, resolved_m(kernel, cell), seed);
  }
  return input;
}

}  // namespace archgraph::sweep
