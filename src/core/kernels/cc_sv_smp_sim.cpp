// Shiloach–Vishkin connected components as a p-thread SMP program.
//
// Same graft/shortcut structure as Alg. 3, but organized the way the paper's
// SMP implementations are: p threads with static partitions of the 2m edge
// slots and the n vertices, barrier-separated phases, and per-thread graft
// flags that thread 0 combines (avoiding a hot shared flag word — one of the
// Greiner/Krishnamurthy-style optimizations the paper cites).
//
// Each thread runs every phase inline in its one coroutine frame, over its
// simk::static_block of the edge slots (frontier.hpp's per-slot charges) or
// of the vertices.
//
// Cache behaviour this exposes on the SMP model: the edge scan is contiguous
// (amortized by the line size), but D[u], D[v], D[D[v]] are non-contiguous —
// the "two non-contiguous memory accesses per edge" of the paper's step-1
// cost analysis — and grafting writes invalidate remotely cached D lines.
#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "core/concomp/concomp.hpp"
#include "core/kernels/frontier.hpp"
#include "core/kernels/kernels.hpp"
#include "core/kernels/sim_par.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"

namespace archgraph::core {

namespace {

using sim::Ctx;
using sim::SimArray;
using sim::SimThread;

SimThread sv_smp_kernel(Ctx ctx, i64 worker, i64 workers,
                        frontier::EdgeSlots es, SimArray<i64> d,
                        SimArray<i64> flags, SimArray<i64> cont,
                        SimArray<i64> iters, i64 max_iters) {
  const i64 n = d.size();
  const simk::Range vblock = simk::static_block(n, worker, workers);
  const simk::Range eblock = simk::static_block(es.slots(), worker, workers);

  // Init: D[i] = i over my vertex block, then the phase barrier.
  for (i64 i = vblock.lo; i < vblock.hi; ++i) {
    co_await ctx.store(d.addr(i), i);
    co_await ctx.compute(1);
  }
  co_await ctx.barrier();

  i64 iteration = 0;
  while (true) {
    // Graft phase over my edge slots.
    i64 grafted = 0;
    for (i64 i = eblock.lo; i < eblock.hi; ++i) {
      const i64 u = co_await ctx.load(es.eu.addr(i));
      const i64 v = co_await ctx.load(es.ev.addr(i));
      const i64 du = co_await ctx.load(d.addr(u));
      const i64 dv = co_await ctx.load(d.addr(v));
      co_await ctx.compute(2);
      if (du < dv) {
        const i64 ddv = co_await ctx.load(d.addr(dv));
        if (ddv == dv) {
          co_await ctx.store(d.addr(dv), du);
          grafted = 1;
        }
      }
    }
    co_await ctx.store(flags.addr(worker), grafted);
    co_await ctx.barrier();

    if (worker == 0) {
      i64 any = 0;
      for (i64 t = 0; t < workers; ++t) {
        any |= co_await ctx.load(flags.addr(t));
        co_await ctx.compute(1);
      }
      co_await ctx.store(cont.addr(0), any);
      co_await ctx.store(iters.addr(0), iteration + 1);
    }
    co_await ctx.barrier();

    ++iteration;
    const i64 proceed = co_await ctx.load(cont.addr(0));
    if (proceed == 0) {
      break;
    }
    AG_CHECK(iteration <= max_iters,
             "simulated Shiloach-Vishkin failed to converge");

    // Shortcut phase over my vertex block, then the phase barrier.
    for (i64 i = vblock.lo; i < vblock.hi; ++i) {
      i64 cur = co_await ctx.load(d.addr(i));
      co_await ctx.compute(1);
      bool moved = false;
      while (true) {
        const i64 up = co_await ctx.load(d.addr(cur));
        co_await ctx.compute(1);
        if (up == cur) break;
        cur = up;
        moved = true;
      }
      if (moved) {
        co_await ctx.store(d.addr(i), cur);
      }
    }
    co_await ctx.barrier();
  }
}

}  // namespace

SimCcResult sim_cc_sv_smp(sim::Machine& machine, const graph::EdgeList& graph,
                          SmpCcParams params) {
  const NodeId n = graph.num_vertices();
  AG_CHECK(n >= 1, "empty graph");
  const i64 threads =
      params.threads > 0 ? params.threads : machine.processors();
  sim::SimMemory& mem = machine.memory();

  frontier::EdgeSlots es(mem, graph);
  SimArray<i64> d(mem, n);
  SimArray<i64> flags(mem, threads);
  SimArray<i64> cont(mem, 1);
  SimArray<i64> iters(mem, 1);
  iters.set(0, 0);
  obs::prof::label_range("edges.u", es.eu);
  obs::prof::label_range("edges.v", es.ev);
  obs::prof::label_range("D", d);
  obs::prof::label_range("flags", flags);
  obs::prof::label_range("cont", cont);
  obs::prof::label_range("iters", iters);

  const i64 max_iters =
      2 * static_cast<i64>(std::bit_width(static_cast<u64>(n))) + 8;
  // One region; barrier releases separate the init pass from the repeating
  // graft / combine / shortcut phases of each iteration.
  obs::label_next_region("cc.sv");
  obs::label_phases({"cc.init"}, {"cc.graft", "cc.combine", "cc.shortcut"});
  simk::spawn_workers(machine, threads, sv_smp_kernel, es, d, flags, cont,
                      iters, max_iters);
  machine.run_region();

  SimCcResult result;
  result.iterations = iters.get(0);
  obs::counter_add("cc.iterations", result.iterations);
  result.labels.resize(static_cast<usize>(n));
  for (NodeId v = 0; v < n; ++v) {
    result.labels[static_cast<usize>(v)] = d.get(v);
  }
  normalize_labels(result.labels);
  return result;
}

}  // namespace archgraph::core
