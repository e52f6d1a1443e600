// Simulated baseline programs: the sequential codes the paper's speedups are
// measured against, plus textbook Wyllie pointer jumping.
//
// Costs: the sequential chase is 2 slots/node (load next, store rank; index
// arithmetic folds into the LIW on the MTA and is noise on the SMP, where
// the dependent random load dominates anyway). Wyllie is ~7 slots per node
// per round x log2(n) rounds — deliberately work-inefficient.
#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "core/concomp/concomp.hpp"
#include "core/kernels/kernels.hpp"
#include "core/kernels/sim_par.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"

namespace archgraph::core {

namespace {

using sim::Addr;
using sim::Ctx;
using sim::SimArray;
using sim::SimThread;

SimThread seq_rank_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                          SimArray<i64> lst, SimArray<i64> rank, i64 head) {
  i64 j = head;
  i64 r = 0;
  while (j >= 0) {
    co_await ctx.store(rank.addr(j), r);
    ++r;
    j = co_await ctx.load(lst.addr(j));
  }
}

/// One Wyllie round (double-buffered):
///   dist_new[i] = dist_old[i] + (next_old[i] >= 0 ? dist_old[next_old[i]] : 0)
///   next_new[i] = next_old[i] >= 0 ? next_old[next_old[i]] : -1
SimThread wyllie_round_kernel(Ctx ctx, i64 worker, i64 workers,
                              SimArray<i64> dist_old, SimArray<i64> next_old,
                              SimArray<i64> dist_new, SimArray<i64> next_new) {
  const simk::Range r = simk::static_block(dist_old.size(), worker, workers);
  for (i64 i = r.lo; i < r.hi; ++i) {
    const i64 succ = co_await ctx.load(next_old.addr(i));
    co_await ctx.compute(1);
    const i64 d = co_await ctx.load(dist_old.addr(i));
    if (succ >= 0) {
      const i64 ds = co_await ctx.load(dist_old.addr(succ));
      co_await ctx.store(dist_new.addr(i), d + ds);
      const i64 s2 = co_await ctx.load(next_old.addr(succ));
      co_await ctx.store(next_new.addr(i), s2);
    } else {
      co_await ctx.store(dist_new.addr(i), d);
      co_await ctx.store(next_new.addr(i), -1);
    }
  }
}

SimThread wyllie_init_kernel(Ctx ctx, i64 worker, i64 workers,
                             SimArray<i64> lst, SimArray<i64> dist,
                             SimArray<i64> next) {
  const simk::Range r = simk::static_block(lst.size(), worker, workers);
  for (i64 i = r.lo; i < r.hi; ++i) {
    const i64 succ = co_await ctx.load(lst.addr(i));
    co_await ctx.compute(1);
    co_await ctx.store(dist.addr(i), succ >= 0 ? 1 : 0);
    co_await ctx.store(next.addr(i), succ);
  }
}

SimThread wyllie_final_kernel(Ctx ctx, i64 worker, i64 workers,
                              SimArray<i64> dist, SimArray<i64> rank) {
  const i64 n = dist.size();
  const simk::Range r = simk::static_block(n, worker, workers);
  for (i64 i = r.lo; i < r.hi; ++i) {
    const i64 to_tail = co_await ctx.load(dist.addr(i));
    co_await ctx.store(rank.addr(i), (n - 1) - to_tail);
    co_await ctx.compute(1);
  }
}

SimThread seq_uf_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                        SimArray<i64> eu, SimArray<i64> ev,
                        SimArray<i64> parent, i64 edges) {
  const i64 n = parent.size();
  // init parent[i] = i
  for (i64 i = 0; i < n; ++i) {
    co_await ctx.store(parent.addr(i), i);
  }
  for (i64 id = 0; id < edges; ++id) {
    const i64 u = co_await ctx.load(eu.addr(id));
    const i64 v = co_await ctx.load(ev.addr(id));
    co_await ctx.compute(1);
    // find(u), find(v) with path halving: the non-contiguous chase.
    i64 roots[2] = {u, v};
    for (i64& r : roots) {
      while (true) {
        const i64 p = co_await ctx.load(parent.addr(r));
        co_await ctx.compute(1);
        if (p == r) break;
        const i64 gp = co_await ctx.load(parent.addr(p));
        co_await ctx.store(parent.addr(r), gp);
        r = gp;
      }
    }
    if (roots[0] != roots[1]) {
      co_await ctx.store(parent.addr(std::max(roots[0], roots[1])),
                         std::min(roots[0], roots[1]));
    }
  }
  // Final flatten so labels are fixed points.
  for (i64 i = 0; i < n; ++i) {
    i64 r = i;
    while (true) {
      const i64 p = co_await ctx.load(parent.addr(r));
      co_await ctx.compute(1);
      if (p == r) break;
      r = p;
    }
    co_await ctx.store(parent.addr(i), r);
  }
}

}  // namespace

std::vector<i64> sim_rank_list_sequential(sim::Machine& machine,
                                          const graph::LinkedList& list) {
  const i64 n = list.size();
  AG_CHECK(n >= 1, "empty list");
  sim::SimMemory& mem = machine.memory();
  SimArray<i64> lst(mem, n);
  lst.assign(list.next);
  SimArray<i64> rank(mem, n);
  obs::prof::label_range("succ", lst);
  obs::prof::label_range("rank", rank);
  obs::label_next_region("lr.seq-chase");
  machine.spawn(seq_rank_kernel, i64{0}, i64{1}, lst, rank,
                static_cast<i64>(list.head));
  machine.run_region();
  return rank.to_vector();
}

std::vector<i64> sim_rank_list_wyllie(sim::Machine& machine,
                                      const graph::LinkedList& list,
                                      WyllieLrParams params) {
  const i64 n = list.size();
  AG_CHECK(n >= 1, "empty list");
  sim::SimMemory& mem = machine.memory();
  SimArray<i64> lst(mem, n);
  lst.assign(list.next);
  SimArray<i64> rank(mem, n);
  SimArray<i64> dist_a(mem, n);
  SimArray<i64> next_a(mem, n);
  SimArray<i64> dist_b(mem, n);
  SimArray<i64> next_b(mem, n);
  obs::prof::label_range("succ", lst);
  obs::prof::label_range("rank", rank);
  obs::prof::label_range("wyllie.dist_a", dist_a);
  obs::prof::label_range("wyllie.next_a", next_a);
  obs::prof::label_range("wyllie.dist_b", dist_b);
  obs::prof::label_range("wyllie.next_b", next_b);

  const i64 workers = simk::auto_workers(machine, n, params.workers);
  obs::label_next_region("wyllie.init");
  simk::spawn_workers(machine, workers, wyllie_init_kernel, lst, dist_a,
                      next_a);
  machine.run_region();

  SimArray<i64> dist = dist_a, next = next_a;
  SimArray<i64> dist_other = dist_b, next_other = next_b;
  const int rounds =
      std::bit_width(static_cast<u64>(std::max<i64>(n - 1, 1)));
  for (int r = 0; r < rounds; ++r) {
    obs::label_next_region("wyllie.round#" + std::to_string(r + 1));
    simk::spawn_workers(machine, workers, wyllie_round_kernel, dist, next,
                        dist_other, next_other);
    machine.run_region();
    std::swap(dist, dist_other);
    std::swap(next, next_other);
  }

  obs::label_next_region("wyllie.final");
  simk::spawn_workers(machine, workers, wyllie_final_kernel, dist, rank);
  machine.run_region();
  return rank.to_vector();
}

std::vector<NodeId> sim_cc_union_find_sequential(
    sim::Machine& machine, const graph::EdgeList& graph) {
  const NodeId n = graph.num_vertices();
  const i64 m = graph.num_edges();
  AG_CHECK(n >= 1, "empty graph");
  sim::SimMemory& mem = machine.memory();
  SimArray<i64> eu(mem, std::max<i64>(m, 1));
  SimArray<i64> ev(mem, std::max<i64>(m, 1));
  for (i64 i = 0; i < m; ++i) {
    eu.set(i, graph.edge(i).u);
    ev.set(i, graph.edge(i).v);
  }
  SimArray<i64> parent(mem, n);
  obs::prof::label_range("edges.u", eu);
  obs::prof::label_range("edges.v", ev);
  obs::prof::label_range("parent", parent);
  obs::label_next_region("cc.seq-union-find");
  machine.spawn(seq_uf_kernel, i64{0}, i64{1}, eu, ev, parent, m);
  machine.run_region();

  std::vector<NodeId> labels(static_cast<usize>(n));
  for (NodeId v = 0; v < n; ++v) {
    labels[static_cast<usize>(v)] = parent.get(v);
  }
  normalize_labels(labels);
  return labels;
}

}  // namespace archgraph::core
