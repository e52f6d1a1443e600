// Distance-1 greedy coloring by iterative speculative coloring, in the
// Çatalyürek/Feo/Gebremedhin shape the paper's companion study runs on
// exactly these two architecture classes: speculatively (re)color an active
// set, detect the vertices whose neighborhoods changed, and recolor until
// nothing moves.
//
// Priorities are vertex ids: the tentative pass recolors v to the mex of its
// *lower-id* neighbors' current colors, and the propagate pass activates the
// *higher-id* neighbors of every changed vertex. The fixed point of that
// system is unique — exactly the sequential first-fit coloring
// (color_greedy_seq) — and chaotic iteration reaches it under any schedule,
// so both drivers are differentially tested for equality, not mere
// properness. Rounds, not colors, are where the schedules differ.
//
// Both drivers run on the frontier data shapes (frontier.hpp), with every
// loop written inline in each thread's one coroutine frame:
//   MTA shape: one dynamically-scheduled region per phase per round
//              (color.tentative#k / color.propagate#k), simk::claim chunk
//              claiming, host-side frontier bookkeeping between regions.
//   SMP shape: a single region, p threads, barrier-separated
//              tentative / propagate / combine phases, statically
//              partitioned frontiers, worker-0 bookkeeping in the combine.
//
// Tentative recolor of v: the CSR bounds loads plus one compute, then per
// arc either the branchy (compare, and for lower neighbors load + mask set)
// or predicated (unconditional load + compute(2)) stream; one palette probe
// per candidate color (compute(mex+1)); one load + compare of the old color;
// and on a change one store plus the changed-list append (fetch_add on its
// size cursor + store). Entries of the active set cost a flag-clearing
// store each (dense: every vertex; sparse: one verts[i] load first).
//
// Conflict propagation from changed u: one verts[i] load, the CSR bounds
// loads plus one compute, then per arc a target load and an id compare;
// each higher-id neighbor is pushed into the next active set with the
// deduplicating claim (fetch_add on its flag + compute; winners append).
//
// The branch_avoiding param selects the Green/Dukhan/Vuduc predicated inner
// loop: every neighbor color is loaded and folded into the palette mask with
// ALU ops (compute(2): mask = id-compare; predicated fold) instead of
// branching on the lower-id test and loading only the lower neighbors. On
// the SMP the extra loads and straight-line issue change the cache and stall
// mix; on the MTA both variants are just issue slots.
#include <algorithm>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/kernels/frontier.hpp"
#include "core/kernels/kernels.hpp"
#include "core/kernels/sim_par.hpp"
#include "graph/csr_graph.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"

namespace archgraph::core {

namespace {

using frontier::Frontier;
using frontier::SimCsr;
using sim::Addr;
using sim::Ctx;
using sim::SimArray;
using sim::SimThread;

/// Smallest color absent from `seen` (sorted in place). Host-side: the
/// kernels charge the palette probes with compute(mex + 1).
i64 mex_of(std::vector<i64>& seen) {
  std::sort(seen.begin(), seen.end());
  i64 mex = 0;
  for (const i64 c : seen) {
    if (c == mex) {
      ++mex;
    } else if (c > mex) {
      break;
    }
  }
  return mex;
}

// --------------------------------------------------------------- MTA shape

SimThread color_init_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                            SimArray<i64> color, Addr counter, i64 chunk) {
  while (true) {
    const simk::Range r =
        co_await simk::claim(ctx, counter, color.size(), chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
      co_await ctx.store(color.addr(i), 0);
      co_await ctx.compute(1);
    }
  }
}

/// Tentative pass over the active set `cur`: `items` is every vertex when
/// `dense`, else the size of its sparse list.
SimThread tentative_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                           SimCsr csr, SimArray<i64> color, Frontier cur,
                           Frontier changed, Addr counter, i64 items,
                           i64 chunk, i64 dense, i64 branch_avoiding) {
  std::vector<i64> seen;  // host scratch; the ALU cost is charged explicitly
  while (true) {
    const simk::Range r = co_await simk::claim(ctx, counter, items, chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
      i64 v = i;
      if (dense == 0) {
        v = co_await ctx.load(cur.vert_addr(i));
      }
      co_await ctx.store(cur.flag_addr(v), 0);  // consume
      const i64 lo = co_await ctx.load(csr.offsets.addr(v));
      const i64 hi = co_await ctx.load(csr.offsets.addr(v + 1));
      co_await ctx.compute(1);  // loop setup: bounds into registers
      seen.clear();
      for (i64 a = lo; a < hi; ++a) {
        const i64 w = co_await ctx.load(csr.targets.addr(a));
        if (branch_avoiding != 0) {
          const i64 cw = co_await ctx.load(color.addr(w));
          co_await ctx.compute(2);  // mask = (w < v); predicated mask fold
          if (w < v) seen.push_back(cw);
        } else {
          co_await ctx.compute(1);  // id compare + branch
          if (w < v) {
            const i64 cw = co_await ctx.load(color.addr(w));
            co_await ctx.compute(1);  // palette-mask set
            seen.push_back(cw);
          }
        }
      }
      const i64 mex = mex_of(seen);
      co_await ctx.compute(mex + 1);  // palette probe per candidate color
      const i64 old = co_await ctx.load(color.addr(v));
      co_await ctx.compute(1);  // changed?
      if (old != mex) {
        co_await ctx.store(color.addr(v), mex);
        const i64 idx = co_await ctx.fetch_add(changed.count_addr(), 1);
        co_await ctx.store(changed.vert_addr(idx), v);
      }
    }
  }
}

SimThread propagate_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                           SimCsr csr, Frontier changed, Frontier next,
                           Addr counter, i64 size, i64 chunk) {
  while (true) {
    const simk::Range r = co_await simk::claim(ctx, counter, size, chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
      const i64 u = co_await ctx.load(changed.vert_addr(i));
      const i64 lo = co_await ctx.load(csr.offsets.addr(u));
      const i64 hi = co_await ctx.load(csr.offsets.addr(u + 1));
      co_await ctx.compute(1);  // loop setup: bounds into registers
      for (i64 a = lo; a < hi; ++a) {
        const i64 w = co_await ctx.load(csr.targets.addr(a));
        co_await ctx.compute(1);  // id compare
        if (w > u) {
          const i64 claimed = co_await ctx.fetch_add(next.flag_addr(w), 1);
          co_await ctx.compute(1);  // claim test
          if (claimed == 0) {
            const i64 idx = co_await ctx.fetch_add(next.count_addr(), 1);
            co_await ctx.store(next.vert_addr(idx), w);
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------- SMP shape

SimThread color_smp_kernel(Ctx ctx, i64 worker, i64 workers, SimCsr csr,
                           SimArray<i64> color, Frontier act0, Frontier act1,
                           Frontier changed, SimArray<i64> rounds_out,
                           i64 branch_avoiding, i64 dense_denom,
                           i64 max_rounds) {
  const i64 n = color.size();
  std::vector<i64> seen;  // host scratch; the ALU cost is charged explicitly

  // Init: color[i] = 0 over my vertex block, then the phase barrier.
  const simk::Range vblock = simk::static_block(n, worker, workers);
  for (i64 i = vblock.lo; i < vblock.hi; ++i) {
    co_await ctx.store(color.addr(i), 0);
    co_await ctx.compute(1);
  }
  co_await ctx.barrier();

  Frontier bufs[2] = {act0, act1};
  i64 parity = 0;
  bool dense = true;  // round 1 recolors everything
  i64 size = 0;       // sparse size of the active set (valid when !dense)
  i64 rounds = 0;
  while (true) {
    Frontier cur = bufs[parity];
    Frontier nxt = bufs[1 - parity];

    // Tentative phase over my block of the active set.
    const simk::Range tblock = dense ? vblock
                                     : simk::static_block(size, worker,
                                                          workers);
    for (i64 i = tblock.lo; i < tblock.hi; ++i) {
      i64 v = i;
      if (!dense) {
        v = co_await ctx.load(cur.vert_addr(i));
      }
      co_await ctx.store(cur.flag_addr(v), 0);  // consume
      const i64 lo = co_await ctx.load(csr.offsets.addr(v));
      const i64 hi = co_await ctx.load(csr.offsets.addr(v + 1));
      co_await ctx.compute(1);  // loop setup: bounds into registers
      seen.clear();
      for (i64 a = lo; a < hi; ++a) {
        const i64 w = co_await ctx.load(csr.targets.addr(a));
        if (branch_avoiding != 0) {
          const i64 cw = co_await ctx.load(color.addr(w));
          co_await ctx.compute(2);  // mask = (w < v); predicated mask fold
          if (w < v) seen.push_back(cw);
        } else {
          co_await ctx.compute(1);  // id compare + branch
          if (w < v) {
            const i64 cw = co_await ctx.load(color.addr(w));
            co_await ctx.compute(1);  // palette-mask set
            seen.push_back(cw);
          }
        }
      }
      const i64 mex = mex_of(seen);
      co_await ctx.compute(mex + 1);  // palette probe per candidate color
      const i64 old = co_await ctx.load(color.addr(v));
      co_await ctx.compute(1);  // changed?
      if (old != mex) {
        co_await ctx.store(color.addr(v), mex);
        const i64 idx = co_await ctx.fetch_add(changed.count_addr(), 1);
        co_await ctx.store(changed.vert_addr(idx), v);
      }
    }
    co_await ctx.barrier();

    ++rounds;
    const i64 csize = co_await ctx.load(changed.count_addr());
    co_await ctx.compute(1);
    if (csize == 0) {
      if (worker == 0) {
        co_await ctx.store(rounds_out.addr(0), rounds);
      }
      break;
    }
    AG_CHECK(rounds <= max_rounds,
             "simulated greedy coloring failed to converge");

    // Propagate phase: my block of changed -> next active frontier.
    const simk::Range pblock = simk::static_block(csize, worker, workers);
    for (i64 i = pblock.lo; i < pblock.hi; ++i) {
      const i64 u = co_await ctx.load(changed.vert_addr(i));
      const i64 lo = co_await ctx.load(csr.offsets.addr(u));
      const i64 hi = co_await ctx.load(csr.offsets.addr(u + 1));
      co_await ctx.compute(1);  // loop setup: bounds into registers
      for (i64 a = lo; a < hi; ++a) {
        const i64 w = co_await ctx.load(csr.targets.addr(a));
        co_await ctx.compute(1);  // id compare
        if (w > u) {
          const i64 claimed = co_await ctx.fetch_add(nxt.flag_addr(w), 1);
          co_await ctx.compute(1);  // claim test
          if (claimed == 0) {
            const i64 idx = co_await ctx.fetch_add(nxt.count_addr(), 1);
            co_await ctx.store(nxt.vert_addr(idx), w);
          }
        }
      }
    }
    co_await ctx.barrier();

    // Combine: worker 0 resets the consumed cursors; everyone reads the next
    // frontier size for the density switch.
    if (worker == 0) {
      co_await ctx.store(changed.count_addr(), 0);
      co_await ctx.store(cur.count_addr(), 0);
    }
    const i64 nsize = co_await ctx.load(nxt.count_addr());
    co_await ctx.compute(1);  // density test
    co_await ctx.barrier();

    size = nsize;
    dense = Frontier::dense(nsize, n, dense_denom);
    parity = 1 - parity;
  }
}

void label_color_ranges(const SimCsr& csr, const SimArray<i64>& color,
                        const Frontier& act0, const Frontier& act1,
                        const Frontier& changed) {
  obs::prof::label_range("csr.offsets", csr.offsets);
  obs::prof::label_range("csr.targets", csr.targets);
  obs::prof::label_range("colors", color);
  obs::prof::label_range("active0.verts", act0.verts());
  obs::prof::label_range("active0.flags", act0.flags());
  obs::prof::label_range("active1.verts", act1.verts());
  obs::prof::label_range("active1.flags", act1.flags());
  obs::prof::label_range("changed.verts", changed.verts());
}

}  // namespace

SimColorResult sim_color_greedy_mta(sim::Machine& machine,
                                    const graph::EdgeList& graph,
                                    MtaColorParams params) {
  const NodeId n = graph.num_vertices();
  AG_CHECK(n >= 1, "empty graph");
  AG_CHECK(params.chunk >= 1, "chunk must be positive");
  AG_CHECK(params.dense_denom >= 1, "dense_denom must be positive");
  sim::SimMemory& mem = machine.memory();

  SimCsr csr(mem, graph::CsrGraph::from_edges(graph));
  SimArray<i64> color(mem, n);
  Frontier act0(mem, n);
  Frontier act1(mem, n);
  Frontier changed(mem, n);
  SimArray<i64> counter(mem, 1);
  label_color_ranges(csr, color, act0, act1, changed);
  obs::prof::label_range("counter", counter);

  counter.set(0, 0);
  obs::label_next_region("color.init");
  simk::spawn_workers(
      machine,
      simk::auto_workers(machine, std::max<i64>(1, n / params.chunk),
                         params.workers),
      color_init_kernel, color, counter.addr(0), params.chunk);
  machine.run_region();

  Frontier* cur = &act0;
  Frontier* nxt = &act1;
  bool dense = true;
  SimColorResult result;
  const i64 max_rounds = n + 8;
  const i64 ba = params.branch_avoiding ? 1 : 0;
  while (true) {
    changed.host_reset();
    counter.set(0, 0);
    obs::label_next_region("color.tentative#" +
                           std::to_string(result.rounds + 1));
    const i64 items = dense ? i64{n} : cur->host_size();
    simk::spawn_workers(
        machine,
        simk::auto_workers(machine, std::max<i64>(1, items / params.chunk),
                           params.workers),
        tentative_kernel, csr, color, *cur, changed, counter.addr(0), items,
        params.chunk, dense ? i64{1} : i64{0}, ba);
    machine.run_region();
    ++result.rounds;
    const i64 nchanged = changed.host_size();
    if (nchanged == 0) break;
    AG_CHECK(result.rounds <= max_rounds,
             "simulated greedy coloring failed to converge");

    nxt->host_reset();
    counter.set(0, 0);
    obs::label_next_region("color.propagate#" + std::to_string(result.rounds));
    simk::spawn_workers(
        machine,
        simk::auto_workers(machine, std::max<i64>(1, nchanged / params.chunk),
                           params.workers),
        propagate_kernel, csr, changed, *nxt, counter.addr(0), nchanged,
        params.chunk);
    machine.run_region();

    std::swap(cur, nxt);
    dense = cur->host_dense(params.dense_denom);
  }
  obs::counter_add("color.rounds", result.rounds);

  result.colors.resize(static_cast<usize>(n));
  for (NodeId v = 0; v < n; ++v) {
    result.colors[static_cast<usize>(v)] = color.get(v);
  }
  return result;
}

SimColorResult sim_color_greedy_smp(sim::Machine& machine,
                                    const graph::EdgeList& graph,
                                    SmpColorParams params) {
  const NodeId n = graph.num_vertices();
  AG_CHECK(n >= 1, "empty graph");
  AG_CHECK(params.dense_denom >= 1, "dense_denom must be positive");
  const i64 threads =
      params.threads > 0 ? params.threads : machine.processors();
  sim::SimMemory& mem = machine.memory();

  SimCsr csr(mem, graph::CsrGraph::from_edges(graph));
  SimArray<i64> color(mem, n);
  Frontier act0(mem, n);
  Frontier act1(mem, n);
  Frontier changed(mem, n);
  SimArray<i64> rounds_out(mem, 1);
  rounds_out.set(0, 0);
  label_color_ranges(csr, color, act0, act1, changed);
  obs::prof::label_range("rounds", rounds_out);

  const i64 max_rounds = n + 8;
  // One region; barrier releases separate the init pass from the repeating
  // tentative / propagate / combine phases of each round.
  obs::label_next_region("color.greedy");
  obs::label_phases({"color.init"},
                    {"color.tentative", "color.propagate", "color.combine"});
  simk::spawn_workers(machine, threads, color_smp_kernel, csr, color, act0,
                      act1, changed, rounds_out,
                      params.branch_avoiding ? i64{1} : i64{0},
                      params.dense_denom, max_rounds);
  machine.run_region();

  SimColorResult result;
  result.rounds = rounds_out.get(0);
  obs::counter_add("color.rounds", result.rounds);
  result.colors.resize(static_cast<usize>(n));
  for (NodeId v = 0; v < n; ++v) {
    result.colors[static_cast<usize>(v)] = color.get(v);
  }
  return result;
}

}  // namespace archgraph::core
