// The paper's Alg. 3: Shiloach–Vishkin connected components on the MTA —
// "a direct translation of the PRAM algorithm".
//
// Per iteration, two dynamically-scheduled parallel regions:
//   graft:    for each of the 2m directed edge slots (u,v):
//                if D[u] < D[v] and D[v] == D[D[v]]:  D[D[v]] = D[u]; graft=1
//   shortcut: for each vertex i:  while D[i] != D[D[i]]:  D[i] = D[D[i]]
// repeated until an iteration grafts nothing. Workers claim edge chunks with
// int_fetch_add (the #pragma mta assert parallel scheduling).
//
// Each kernel is one coroutine per worker: the graft and shortcut loops
// claim chunks with simk::claim (one fetch_add per chunk) and scan the edge
// slots inline with frontier.hpp's charges (two endpoint loads per slot).
//
// Issue-slot count per edge: 2 loads (edge endpoints, contiguous) + 2 loads
// (D[u], D[v], non-contiguous) + 2 ALU, plus a D[D[v]] load and up to two
// stores on the grafting edges — ≈6.5 slots/edge/iteration.
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

using sim::Addr;
using sim::Ctx;
using sim::SimArray;
using sim::SimThread;

SimThread iota_kernel(Ctx ctx, i64 worker, i64 workers, SimArray<i64> arr) {
  const simk::Range r = simk::static_block(arr.size(), worker, workers);
  for (i64 i = r.lo; i < r.hi; ++i) {
    co_await ctx.store(arr.addr(i), i);
    co_await ctx.compute(1);
  }
}

SimThread graft_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                       frontier::EdgeSlots es, SimArray<i64> d, Addr counter,
                       Addr graft_flag, i64 chunk) {
  while (true) {
    const simk::Range r =
        co_await simk::claim(ctx, counter, es.slots(), chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
      const i64 u = co_await ctx.load(es.eu.addr(i));
      const i64 v = co_await ctx.load(es.ev.addr(i));
      const i64 du = co_await ctx.load(d.addr(u));
      const i64 dv = co_await ctx.load(d.addr(v));
      co_await ctx.compute(2);  // compare chain + loop bookkeeping
      if (du < dv) {
        const i64 ddv = co_await ctx.load(d.addr(dv));
        if (ddv == dv) {
          co_await ctx.store(d.addr(dv), du);
          co_await ctx.store(graft_flag, 1);
        }
      }
    }
  }
}

SimThread shortcut_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                          SimArray<i64> d, Addr counter, i64 chunk) {
  while (true) {
    const simk::Range r = co_await simk::claim(ctx, counter, d.size(), chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
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
  }
}

}  // namespace

SimCcResult sim_cc_sv_mta(sim::Machine& machine, const graph::EdgeList& graph,
                          MtaCcParams params) {
  const NodeId n = graph.num_vertices();
  const i64 m = graph.num_edges();
  AG_CHECK(n >= 1, "empty graph");
  AG_CHECK(params.chunk >= 1, "chunk must be positive");
  sim::SimMemory& mem = machine.memory();

  // Both orientations of every edge, as Alg. 3's loop over 2m slots.
  const i64 slots = 2 * m;
  frontier::EdgeSlots es(mem, graph);
  SimArray<i64> d(mem, n);
  SimArray<i64> counter(mem, 1);
  SimArray<i64> graft(mem, 1);
  obs::prof::label_range("edges.u", es.eu);
  obs::prof::label_range("edges.v", es.ev);
  obs::prof::label_range("D", d);
  obs::prof::label_range("counter", counter);
  obs::prof::label_range("graft", graft);

  obs::label_next_region("cc.init");
  simk::spawn_workers(machine, simk::auto_workers(machine, n, params.workers),
                      iota_kernel, d);
  machine.run_region();

  const i64 edge_workers = simk::auto_workers(
      machine, std::max<i64>(1, slots / params.chunk), params.workers);
  const i64 vertex_workers = simk::auto_workers(
      machine, std::max<i64>(1, n / params.chunk), params.workers);

  SimCcResult result;
  const i64 max_iters =
      2 * static_cast<i64>(std::bit_width(static_cast<u64>(n))) + 8;
  while (true) {
    graft.set(0, 0);
    if (slots > 0) {
      counter.set(0, 0);
      obs::label_next_region("cc.graft#" +
                             std::to_string(result.iterations + 1));
      simk::spawn_workers(machine, edge_workers, graft_kernel, es, d,
                          counter.addr(0), graft.addr(0), params.chunk);
      machine.run_region();
    }
    ++result.iterations;
    if (graft.get(0) == 0) {
      break;  // D was already a fixed point after the previous shortcut
    }
    counter.set(0, 0);
    obs::label_next_region("cc.shortcut#" + std::to_string(result.iterations));
    simk::spawn_workers(machine, vertex_workers, shortcut_kernel, d,
                        counter.addr(0), params.chunk);
    machine.run_region();
    AG_CHECK(result.iterations <= max_iters,
             "simulated Shiloach-Vishkin failed to converge");
  }
  obs::counter_add("cc.iterations", result.iterations);

  result.labels.resize(static_cast<usize>(n));
  for (NodeId v = 0; v < n; ++v) {
    result.labels[static_cast<usize>(v)] = d.get(v);
  }
  normalize_labels(result.labels);
  return result;
}

}  // namespace archgraph::core
