// Level-synchronous BFS spanning forest — the connected-components
// companion: one root per component (found by a charged sequential seek, so
// forest labels match the CC kernels' component structure), level frontiers,
// and a parent array that is the spanning forest.
//
// Discovery races between frontier vertices reaching the same neighbor are
// resolved by a fetch_add claim on the visited word: exactly one discoverer
// wins and writes parent/level. Which one wins depends on the machine and
// schedule, so the *levels* (exact BFS distances, schedule-independent) are
// differentially tested against bfs_tree_seq, while parents are checked
// structurally with graph::validate::is_bfs_forest.
//
// parent/level need no charged init pass: every vertex is claimed exactly
// once (by its seek or its discoverer) and written then; the visited array
// relies on freshly allocated simulated memory being zeroed, the same
// convention every kernel's uninitialized scratch uses.
//
// Both drivers run on the frontier data shapes (frontier.hpp), with the
// frontier scan, the neighbor scan and the push written inline in each
// thread's one coroutine frame:
//   MTA shape: a region per seek (bfs.seek#c, one sequential stream probing
//              visited words) and per level (bfs.level#k, simk::claim chunks
//              over the sparse frontier), host bookkeeping between regions.
//   SMP shape: a single region, p threads, alternating barrier-separated
//              seek (worker 0 scans; everyone re-reads sizes) and expand
//              (static frontier partition) phases.
//
// Expanding frontier vertex u: one load of u from the frontier, the CSR
// bounds loads plus one compute, then per arc one target load, one fetch_add
// claim on the neighbor's visited word and a compute to test it; winners
// store parent and level and append to the next frontier (fetch_add on its
// size cursor + store; no flag claim — visited is the dedup).
#include <algorithm>
#include <string>

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

// --------------------------------------------------------------- MTA shape

/// Sequential charged scan for the next unvisited vertex from `start`: one
/// load + compute per probe; on a hit, the root claim (fetch_add), parent /
/// level stores, the frontier append, and the found-word store.
SimThread bfs_seek_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                          SimArray<i64> visited, SimArray<i64> parent,
                          SimArray<i64> level, Frontier f, SimArray<i64> found,
                          i64 start) {
  const i64 n = visited.size();
  for (i64 v = start; v < n; ++v) {
    const i64 seen = co_await ctx.load(visited.addr(v));
    co_await ctx.compute(1);
    if (seen == 0) {
      co_await ctx.fetch_add(visited.addr(v), 1);  // uncontended claim
      co_await ctx.store(parent.addr(v), v);
      co_await ctx.store(level.addr(v), 0);
      const i64 idx = co_await ctx.fetch_add(f.count_addr(), 1);
      co_await ctx.store(f.vert_addr(idx), v);
      co_await ctx.store(found.addr(0), v);
      co_return;
    }
  }
  co_await ctx.store(found.addr(0), -1);
}

SimThread bfs_expand_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                            SimCsr csr, SimArray<i64> visited,
                            SimArray<i64> parent, SimArray<i64> level,
                            Frontier cur, Frontier nxt, Addr counter, i64 size,
                            i64 depth, i64 chunk) {
  while (true) {
    const simk::Range r = co_await simk::claim(ctx, counter, size, chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
      const i64 u = co_await ctx.load(cur.vert_addr(i));
      const i64 lo = co_await ctx.load(csr.offsets.addr(u));
      const i64 hi = co_await ctx.load(csr.offsets.addr(u + 1));
      co_await ctx.compute(1);  // loop setup: bounds into registers
      for (i64 a = lo; a < hi; ++a) {
        const i64 w = co_await ctx.load(csr.targets.addr(a));
        const i64 seen = co_await ctx.fetch_add(visited.addr(w), 1);
        co_await ctx.compute(1);  // claim test
        if (seen == 0) {
          co_await ctx.store(parent.addr(w), u);
          co_await ctx.store(level.addr(w), depth);
          const i64 idx = co_await ctx.fetch_add(nxt.count_addr(), 1);
          co_await ctx.store(nxt.vert_addr(idx), w);
        }
      }
    }
  }
}

// --------------------------------------------------------------- SMP shape

SimThread bfs_smp_kernel(Ctx ctx, i64 worker, i64 workers, SimCsr csr,
                         SimArray<i64> visited, SimArray<i64> parent,
                         SimArray<i64> level, Frontier f0, Frontier f1,
                         SimArray<i64> status, SimArray<i64> out) {
  const i64 n = visited.size();
  Frontier bufs[2] = {f0, f1};
  i64 parity = 0;
  i64 size = 0;   // current frontier size (agreed after each expand)
  i64 depth = 0;  // level the next expand writes
  i64 rounds = 0;
  i64 components = 0;
  i64 scan_pos = 0;  // worker 0's seek cursor
  while (true) {
    Frontier cur = bufs[parity];
    Frontier nxt = bufs[1 - parity];

    // Seek phase: when the frontier drained, worker 0 scans for the next
    // root; everyone else just meets the barrier so the phase cycle stays
    // uniform.
    if (size == 0) {
      if (worker == 0) {
        i64 root = -1;
        while (scan_pos < n) {
          const i64 seen = co_await ctx.load(visited.addr(scan_pos));
          co_await ctx.compute(1);
          if (seen == 0) {
            root = scan_pos;
            break;
          }
          ++scan_pos;
        }
        if (root >= 0) {
          co_await ctx.fetch_add(visited.addr(root), 1);  // uncontended claim
          co_await ctx.store(parent.addr(root), root);
          co_await ctx.store(level.addr(root), 0);
          const i64 idx = co_await ctx.fetch_add(cur.count_addr(), 1);
          co_await ctx.store(cur.vert_addr(idx), root);
        }
        co_await ctx.store(status.addr(0), root);
      }
      co_await ctx.barrier();
      const i64 st = co_await ctx.load(status.addr(0));
      co_await ctx.compute(1);
      if (st < 0) {
        if (worker == 0) {
          co_await ctx.store(out.addr(0), rounds);
          co_await ctx.store(out.addr(1), components);
        }
        break;
      }
      ++components;
      size = 1;
      depth = 1;
    } else {
      co_await ctx.barrier();  // empty seek keeps the phase cycle
    }

    // Expand phase: my block of the frontier into the next one.
    const simk::Range block = simk::static_block(size, worker, workers);
    for (i64 i = block.lo; i < block.hi; ++i) {
      const i64 u = co_await ctx.load(cur.vert_addr(i));
      const i64 lo = co_await ctx.load(csr.offsets.addr(u));
      const i64 hi = co_await ctx.load(csr.offsets.addr(u + 1));
      co_await ctx.compute(1);  // loop setup: bounds into registers
      for (i64 a = lo; a < hi; ++a) {
        const i64 w = co_await ctx.load(csr.targets.addr(a));
        const i64 seen = co_await ctx.fetch_add(visited.addr(w), 1);
        co_await ctx.compute(1);  // claim test
        if (seen == 0) {
          co_await ctx.store(parent.addr(w), u);
          co_await ctx.store(level.addr(w), depth);
          const i64 idx = co_await ctx.fetch_add(nxt.count_addr(), 1);
          co_await ctx.store(nxt.vert_addr(idx), w);
        }
      }
    }
    co_await ctx.barrier();

    ++rounds;
    AG_CHECK(rounds <= n + 8, "simulated BFS failed to converge");
    const i64 nsize = co_await ctx.load(nxt.count_addr());
    co_await ctx.compute(1);
    if (worker == 0) {
      co_await ctx.store(cur.count_addr(), 0);  // consumed; reuse next round
    }
    size = nsize;
    ++depth;
    parity = 1 - parity;
  }
}

void label_bfs_ranges(const SimCsr& csr, const SimArray<i64>& visited,
                      const SimArray<i64>& parent, const SimArray<i64>& level,
                      const Frontier& f0, const Frontier& f1) {
  obs::prof::label_range("csr.offsets", csr.offsets);
  obs::prof::label_range("csr.targets", csr.targets);
  obs::prof::label_range("visited", visited);
  obs::prof::label_range("parent", parent);
  obs::prof::label_range("level", level);
  obs::prof::label_range("frontier0.verts", f0.verts());
  obs::prof::label_range("frontier1.verts", f1.verts());
}

}  // namespace

SimBfsResult sim_bfs_tree_mta(sim::Machine& machine,
                              const graph::EdgeList& graph,
                              MtaBfsParams params) {
  const NodeId n = graph.num_vertices();
  AG_CHECK(n >= 1, "empty graph");
  AG_CHECK(params.chunk >= 1, "chunk must be positive");
  sim::SimMemory& mem = machine.memory();

  SimCsr csr(mem, graph::CsrGraph::from_edges(graph));
  SimArray<i64> visited(mem, n);
  SimArray<i64> parent(mem, n);
  SimArray<i64> level(mem, n);
  SimArray<i64> found(mem, 1);
  SimArray<i64> counter(mem, 1);
  Frontier f0(mem, n);
  Frontier f1(mem, n);
  label_bfs_ranges(csr, visited, parent, level, f0, f1);
  obs::prof::label_range("counter", counter);

  SimBfsResult result;
  Frontier* cur = &f0;
  Frontier* nxt = &f1;
  i64 scan_start = 0;
  while (true) {
    cur->host_reset();
    obs::label_next_region("bfs.seek#" +
                           std::to_string(result.components + 1));
    simk::spawn_workers(machine, 1, bfs_seek_kernel, visited, parent, level,
                        *cur, found, scan_start);
    machine.run_region();
    const i64 root = found.get(0);
    if (root < 0) break;
    ++result.components;
    scan_start = root + 1;

    i64 depth = 1;
    while (cur->host_size() > 0) {
      const i64 size = cur->host_size();
      nxt->host_reset();
      counter.set(0, 0);
      obs::label_next_region("bfs.level#" + std::to_string(result.rounds + 1));
      simk::spawn_workers(
          machine,
          simk::auto_workers(machine, std::max<i64>(1, size / params.chunk),
                             params.workers),
          bfs_expand_kernel, csr, visited, parent, level, *cur, *nxt,
          counter.addr(0), size, depth, params.chunk);
      machine.run_region();
      ++result.rounds;
      ++depth;
      std::swap(cur, nxt);
      AG_CHECK(result.rounds <= n + 8, "simulated BFS failed to converge");
    }
  }
  obs::counter_add("bfs.components", result.components);
  obs::counter_add("bfs.rounds", result.rounds);

  result.parent.resize(static_cast<usize>(n));
  result.level.resize(static_cast<usize>(n));
  for (NodeId v = 0; v < n; ++v) {
    result.parent[static_cast<usize>(v)] = parent.get(v);
    result.level[static_cast<usize>(v)] = level.get(v);
  }
  return result;
}

SimBfsResult sim_bfs_tree_smp(sim::Machine& machine,
                              const graph::EdgeList& graph,
                              SmpBfsParams params) {
  const NodeId n = graph.num_vertices();
  AG_CHECK(n >= 1, "empty graph");
  const i64 threads =
      params.threads > 0 ? params.threads : machine.processors();
  sim::SimMemory& mem = machine.memory();

  SimCsr csr(mem, graph::CsrGraph::from_edges(graph));
  SimArray<i64> visited(mem, n);
  SimArray<i64> parent(mem, n);
  SimArray<i64> level(mem, n);
  SimArray<i64> status(mem, 1);
  SimArray<i64> out(mem, 2);
  Frontier f0(mem, n);
  Frontier f1(mem, n);
  label_bfs_ranges(csr, visited, parent, level, f0, f1);
  obs::prof::label_range("status", status);
  obs::prof::label_range("out", out);

  // One region; alternating seek / expand phases between barrier releases.
  obs::label_next_region("bfs.tree");
  obs::label_phases({}, {"bfs.seek", "bfs.expand"});
  simk::spawn_workers(machine, threads, bfs_smp_kernel, csr, visited, parent,
                      level, f0, f1, status, out);
  machine.run_region();

  SimBfsResult result;
  result.rounds = out.get(0);
  result.components = out.get(1);
  obs::counter_add("bfs.components", result.components);
  obs::counter_add("bfs.rounds", result.rounds);
  result.parent.resize(static_cast<usize>(n));
  result.level.resize(static_cast<usize>(n));
  for (NodeId v = 0; v < n; ++v) {
    result.parent[static_cast<usize>(v)] = parent.get(v);
    result.level[static_cast<usize>(v)] = level.get(v);
  }
  return result;
}

}  // namespace archgraph::core
