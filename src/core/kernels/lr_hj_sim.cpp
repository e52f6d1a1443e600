// Helman–JáJá list ranking as a p-thread, barrier-separated SMP program
// (paper §3 steps 1-5).
//
// One simulated region, p threads pinned one per processor, four barriers:
//   step 1  each thread sums its block of the successor array (contiguous);
//           thread 0 combines the partials into the head (index-sum
//           identity)
//   step 2  thread 0 marks s = 8p sublist heads (the head plus random picks,
//           one per block of ~n/(s-1) slots)
//   step 3  threads walk their sublists: sub_of[] (doubles as the head
//           marker), local[] — the non-contiguous pointer-chasing phase that
//           dominates on a cache machine
//   step 4  thread 0 chains the sublist records into global offsets
//   step 5  each thread writes rank[i] = offset[sub_of[i]] + local[i] over
//           its block (contiguous reads and writes)
//
// The structure mirrors the triplet cost model: T_M comes almost entirely
// from step 3 (≈3 non-contiguous accesses per node), T_C is O(n/p), and
// B(n,p) = 4.
#include <algorithm>

#include "common/check.hpp"
#include "common/prng.hpp"
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

SimThread hj_kernel(Ctx ctx, i64 worker, i64 workers, SimArray<i64> lst,
                    SimArray<i64> sub_of, SimArray<i64> local,
                    SimArray<i64> rank, SimArray<i64> heads,
                    SimArray<i64> lens, SimArray<i64> succs,
                    SimArray<i64> offsets, SimArray<i64> partial, u64 seed) {
  const i64 n = lst.size();
  const i64 s = heads.size();

  // --- step 0+1: clear the marker array and sum the successor array -------
  // (fused: one pass over each thread's contiguous block).
  {
    const simk::Range block = simk::static_block(n, worker, workers);
    i64 z = 0;
    for (i64 i = block.lo; i < block.hi; ++i) {
      co_await ctx.store(sub_of.addr(i), -1);
      z += co_await ctx.load(lst.addr(i));
      co_await ctx.compute(1);
    }
    co_await ctx.store(partial.addr(worker), z);
  }
  co_await ctx.barrier();

  // --- step 2: thread 0 selects and marks the sublist heads ---------------
  if (worker == 0) {
    i64 z = 0;
    for (i64 t = 0; t < workers; ++t) {
      z += co_await ctx.load(partial.addr(t));
      co_await ctx.compute(1);
    }
    const i64 head = n * (n - 1) / 2 - z - 1;  // tail's nil successor = -1
    co_await ctx.store(heads.addr(0), head);
    co_await ctx.store(sub_of.addr(head), 0);

    Prng rng(seed);
    i64 k = 1;
    const i64 picks = std::min<i64>(s - 1, n - 1);
    const i64 block = std::max<i64>(1, picks > 0 ? n / picks : n);
    for (i64 attempt = 0; attempt < picks; ++attempt) {
      const i64 lo = attempt * block;
      if (lo >= n) break;
      const i64 hi = std::min<i64>(lo + block, n);
      const i64 pick =
          lo + static_cast<i64>(rng.below(static_cast<u64>(hi - lo)));
      co_await ctx.compute(2);  // index arithmetic + RNG step
      const i64 existing = co_await ctx.load(sub_of.addr(pick));
      if (existing == -1) {
        co_await ctx.store(sub_of.addr(pick), k);
        co_await ctx.store(heads.addr(k), pick);
        ++k;
      }
    }
    for (; k < s; ++k) {
      co_await ctx.store(heads.addr(k), -1);  // unused slot
    }
  }
  co_await ctx.barrier();

  // --- step 3: walk my sublists (static assignment, 8 per thread) ---------
  {
    const simk::Range block = simk::static_block(s, worker, workers);
    for (i64 k = block.lo; k < block.hi; ++k) {
      i64 j = co_await ctx.load(heads.addr(k));
      co_await ctx.compute(1);
      if (j < 0) continue;  // deduplicated-away sublist
      i64 r = 0;
      i64 successor_sublist = -1;
      while (true) {
        co_await ctx.store(local.addr(j), r);
        const i64 jn = co_await ctx.load(lst.addr(j));
        co_await ctx.compute(1);
        if (jn < 0) {
          break;  // list tail
        }
        const i64 mark = co_await ctx.load(sub_of.addr(jn));
        if (mark != -1) {
          successor_sublist = mark;  // jn heads the next sublist
          break;
        }
        co_await ctx.store(sub_of.addr(jn), k);
        j = jn;
        ++r;
      }
      co_await ctx.store(lens.addr(k), r + 1);
      co_await ctx.store(succs.addr(k), successor_sublist);
    }
  }
  co_await ctx.barrier();

  // --- step 4: thread 0 chains the sublist records into offsets -----------
  if (worker == 0) {
    i64 cur = 0;
    i64 off = 0;
    i64 visited = 0;
    while (cur != -1) {
      co_await ctx.store(offsets.addr(cur), off);
      off += co_await ctx.load(lens.addr(cur));
      cur = co_await ctx.load(succs.addr(cur));
      co_await ctx.compute(1);
      AG_CHECK(++visited <= s, "sublist chain longer than the sublist count");
    }
    AG_CHECK(off == n, "sublist chain did not cover the list");
  }
  co_await ctx.barrier();

  // --- step 5: final contiguous pass ---------------------------------------
  const simk::Range block = simk::static_block(n, worker, workers);
  for (i64 i = block.lo; i < block.hi; ++i) {
    const i64 k = co_await ctx.load(sub_of.addr(i));
    const i64 r = co_await ctx.load(local.addr(i));
    const i64 off = co_await ctx.load(offsets.addr(k));
    co_await ctx.store(rank.addr(i), off + r);
    co_await ctx.compute(1);
  }
}

}  // namespace

std::vector<i64> sim_rank_list_hj(sim::Machine& machine,
                                  const graph::LinkedList& list,
                                  HjLrParams params) {
  const i64 n = list.size();
  AG_CHECK(n >= 1, "empty list");
  AG_CHECK(params.sublists_per_thread >= 1, "need at least one sublist");
  const i64 threads =
      params.threads > 0 ? params.threads : machine.processors();
  const i64 s = std::max<i64>(1, params.sublists_per_thread * threads);

  sim::SimMemory& mem = machine.memory();
  SimArray<i64> lst(mem, n);
  lst.assign(list.next);
  SimArray<i64> sub_of(mem, n);  // cleared to -1 by the kernel's step 0
  SimArray<i64> local(mem, n);
  SimArray<i64> rank(mem, n);
  SimArray<i64> heads(mem, s);
  SimArray<i64> lens(mem, s);
  SimArray<i64> succs(mem, s);
  SimArray<i64> offsets(mem, s);
  SimArray<i64> partial(mem, threads);

  // Attribution labels: "succ" is the pointer-chased successor array whose
  // miss rate separates ordered from random layouts (Fig. 1's gap).
  obs::prof::label_range("succ", lst);
  obs::prof::label_range("sub_of", sub_of);
  obs::prof::label_range("local", local);
  obs::prof::label_range("rank", rank);
  obs::prof::label_range("sublist.heads", heads);
  obs::prof::label_range("sublist.lens", lens);
  obs::prof::label_range("sublist.succs", succs);
  obs::prof::label_range("sublist.offsets", offsets);
  obs::prof::label_range("partial", partial);

  // One region, four barriers: the span between consecutive barrier releases
  // is exactly one of the paper's five steps.
  obs::label_next_region("hj.rank");
  obs::label_phases({"hj.successor-sum", "hj.sublist-selection",
                     "hj.local-walk", "hj.sublist-rank", "hj.final-rank"});
  obs::counter_add("hj.sublists", s);
  simk::spawn_workers(machine, threads, hj_kernel, lst, sub_of, local, rank,
                      heads, lens, succs, offsets, partial, params.seed);
  machine.run_region();

  return rank.to_vector();
}

}  // namespace archgraph::core
