// The paper's Alg. 1: MTA-style list ranking by marked walks.
//
// Phases (each a simulated parallel region):
//   A  head finding      — parallel sum of the successor array (index-sum
//                          identity), one fetch-add per worker.
//   B  rank init         — rank[i] = -1 (the walk-head marker value).
//   C  mark walk heads   — rank[head_w] = w for W walk heads (the list head
//                          plus evenly spaced array positions).
//   D  walks             — dynamically scheduled (int_fetch_add claims one
//                          walk at a time, the paper's load-balancing idiom);
//                          each walk counts its length and finds its
//                          successor walk.
//   E  walk prefix       — pointer doubling over the W walk records:
//                          dist[w] accumulates the node count from walk w's
//                          head to the end of the list (exactly what Alg. 1's
//                          lnth/tmp loops compute — its final ranks are
//                          NLIST - lnth[i]); double-buffered, race-free.
//   F  final ranks       — re-walk each sublist writing n - dist[w],
//                          n - dist[w] + 1, ...
//
// Per-node costs: D is 3 issue slots per node (load next, load mark,
// 1 ALU); F is 3 (load next, store rank, 1 ALU); A and B are 1 each (the
// 3-wide LIW folds the accumulate/loop control into the memory op).
// ~8 slots/node total plus ~7 x W x log2(W) for phase E, matching a hand
// instruction count of Alg. 1.
#include <algorithm>
#include <bit>

#include "common/check.hpp"
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

// The MTA's instruction word is 3-wide (memory op + fused multiply-add +
// control), so a simple "load/store + accumulate + loop test" iteration is
// ONE instruction: these streaming kernels charge only the memory op.

/// Parallel sum: static scan of `next` (one load per element) plus one
/// fetch_add of the worker's partial into `acc`.
SimThread sum_next_kernel(Ctx ctx, i64 worker, i64 workers,
                          SimArray<i64> next, Addr acc) {
  const simk::Range r = simk::static_block(next.size(), worker, workers);
  i64 local = 0;
  for (i64 i = r.lo; i < r.hi; ++i) {
    local += co_await ctx.load(next.addr(i));
  }
  co_await ctx.fetch_add(acc, local);
}

SimThread fill_kernel(Ctx ctx, i64 worker, i64 workers, SimArray<i64> arr,
                      i64 value) {
  const simk::Range r = simk::static_block(arr.size(), worker, workers);
  for (i64 i = r.lo; i < r.hi; ++i) {
    co_await ctx.store(arr.addr(i), value);
  }
}

SimThread mark_heads_kernel(Ctx ctx, i64 worker, i64 workers,
                            SimArray<i64> heads, SimArray<i64> rank) {
  const simk::Range r = simk::static_block(heads.size(), worker, workers);
  for (i64 w = r.lo; w < r.hi; ++w) {
    const i64 h = co_await ctx.load(heads.addr(w));
    co_await ctx.store(rank.addr(h), w);
    co_await ctx.compute(1);
  }
}

SimThread walk_kernel(Ctx ctx, i64 worker, i64 workers, SimArray<i64> lst,
                      SimArray<i64> rank, SimArray<i64> heads,
                      SimArray<i64> len, SimArray<i64> succ,
                      SimArray<i64> tail, Addr counter,
                      simk::Schedule schedule) {
  simk::Items walks(schedule, counter, worker, workers, heads.size());
  while (true) {
    const i64 w = co_await walks.next(ctx);
    if (w < 0) break;
    i64 j = co_await ctx.load(heads.addr(w));
    i64 count = 1;  // the head node itself
    while (true) {
      const i64 jn = co_await ctx.load(lst.addr(j));
      co_await ctx.compute(1);  // successor test + count increment
      if (jn < 0) {  // list tail: this walk ends the list
        co_await ctx.store(succ.addr(w), -1);
        co_await ctx.store(tail.addr(w), -1);
        break;
      }
      const i64 mark = co_await ctx.load(rank.addr(jn));
      if (mark >= 0) {  // jn is the head of walk `mark`
        co_await ctx.store(succ.addr(w), mark);
        co_await ctx.store(tail.addr(w), jn);
        break;
      }
      j = jn;
      ++count;
    }
    co_await ctx.store(len.addr(w), count);
  }
}

/// One pointer-doubling round over the walk records (double-buffered):
///   dist_new[w] = dist_old[w] + dist_old[succ_old[w]]
///   succ_new[w] = succ_old[succ_old[w]]
/// After ceil(log2 W)+1 rounds, dist[w] = number of list nodes from walk w's
/// head through the end of the list, so w's first node ranks n - dist[w].
SimThread jump_round_kernel(Ctx ctx, i64 worker, i64 workers,
                            SimArray<i64> dist_old, SimArray<i64> succ_old,
                            SimArray<i64> dist_new, SimArray<i64> succ_new) {
  const simk::Range r = simk::static_block(dist_old.size(), worker, workers);
  for (i64 w = r.lo; w < r.hi; ++w) {
    const i64 s = co_await ctx.load(succ_old.addr(w));
    co_await ctx.compute(1);
    const i64 d = co_await ctx.load(dist_old.addr(w));
    if (s >= 0) {
      const i64 ds = co_await ctx.load(dist_old.addr(s));
      co_await ctx.store(dist_new.addr(w), d + ds);
      const i64 s2 = co_await ctx.load(succ_old.addr(s));
      co_await ctx.store(succ_new.addr(w), s2);
    } else {
      co_await ctx.store(dist_new.addr(w), d);
      co_await ctx.store(succ_new.addr(w), -1);
    }
  }
}

SimThread final_rank_kernel(Ctx ctx, i64 worker, i64 workers,
                            SimArray<i64> lst, SimArray<i64> rank,
                            SimArray<i64> heads, SimArray<i64> dist,
                            SimArray<i64> tail, Addr counter,
                            simk::Schedule schedule) {
  const i64 n = lst.size();
  simk::Items walks(schedule, counter, worker, workers, heads.size());
  while (true) {
    const i64 w = co_await walks.next(ctx);
    if (w < 0) break;
    i64 j = co_await ctx.load(heads.addr(w));
    // Alg. 1: count = NLIST - lnth[i]; dist[w] counts w's head through the
    // list's end, so w's first node ranks n - dist[w].
    i64 count = n - co_await ctx.load(dist.addr(w));
    const i64 stop = co_await ctx.load(tail.addr(w));
    while (j != stop) {
      co_await ctx.store(rank.addr(j), count);
      ++count;
      j = co_await ctx.load(lst.addr(j));
      co_await ctx.compute(1);  // compare + increment
    }
  }
}

}  // namespace

std::vector<i64> sim_rank_list_walk(sim::Machine& machine,
                                    const graph::LinkedList& list,
                                    WalkLrParams params) {
  const i64 n = list.size();
  AG_CHECK(n >= 1, "empty list");
  sim::SimMemory& mem = machine.memory();

  SimArray<i64> lst(mem, n);
  lst.assign(list.next);
  SimArray<i64> rank(mem, n);
  SimArray<i64> acc(mem, 1);
  acc.set(0, 0);
  // "succ" = the pointer-chased successor array; "acc" is the fetch-add
  // hotspot word (one bank — its heat column shows the serialization).
  obs::prof::label_range("succ", lst);
  obs::prof::label_range("rank", rank);
  obs::prof::label_range("acc", acc);

  // Phase A: find the head the paper's way (parallel index sum).
  obs::label_next_region("lr.head-sum");
  simk::spawn_workers(machine, simk::auto_workers(machine, n, params.workers),
                      sum_next_kernel, lst, acc.addr(0));
  machine.run_region();
  const i64 head = n * (n - 1) / 2 - acc.get(0) - 1;
  AG_CHECK(head >= 0 && head < n && head == list.head,
           "head-finding identity failed — input is not a valid list");

  // Walk count: enough to keep every hardware thread slot busy, few enough
  // that the O(W log W) doubling step stays negligible.
  // Default walk count: enough short walks that (a) the fetch-add scheduler
  // keeps every stream fed, and (b) the longest walk (≈ mean x ln W on a
  // random layout) stays a small fraction of the phase span — the end-of-
  // phase drain behind the walk-length imbalance the paper's §3 discusses.
  // Kept small enough that phase E's O(W log W) doubling is a minor term.
  i64 num_walks = params.num_walks;
  if (num_walks <= 0) {
    num_walks = std::min<i64>(std::max<i64>(1, n / 8),
                              std::max<i64>(6144, 16 * machine.concurrency()));
  }
  num_walks = std::clamp<i64>(num_walks, 1, n);

  // Walk heads: the list head plus evenly spaced array slots, deduplicated
  // against the head. Unlike Alg. 1's i * (NLIST / NWALK), the division
  // remainder is spread over the walks (+1 slot for the first n mod W of
  // them): with truncating strides the final walk is up to W nodes longer
  // than the mean and its serial pointer chase becomes an end-of-phase
  // drain that caps utilization on otherwise perfectly balanced inputs.
  std::vector<i64> head_slots;
  head_slots.reserve(static_cast<usize>(num_walks));
  head_slots.push_back(head);
  const i64 stride = n / num_walks;
  const i64 remainder = n % num_walks;
  for (i64 w = 1; w < num_walks; ++w) {
    const i64 slot = w * stride + std::min(w, remainder);
    if (slot < n && slot != head) {
      head_slots.push_back(slot);
    }
  }
  const auto w_count = static_cast<i64>(head_slots.size());

  SimArray<i64> heads(mem, w_count);
  heads.assign(head_slots);
  SimArray<i64> len(mem, w_count);  // phase D writes; doubles as dist buffer 0
  SimArray<i64> succ_a(mem, w_count);
  SimArray<i64> tail(mem, w_count);
  SimArray<i64> dist_b(mem, w_count);
  SimArray<i64> succ_b(mem, w_count);
  SimArray<i64> counter(mem, 1);
  obs::prof::label_range("walk.heads", heads);
  obs::prof::label_range("walk.len", len);
  obs::prof::label_range("walk.succ_a", succ_a);
  obs::prof::label_range("walk.tail", tail);
  obs::prof::label_range("walk.dist_b", dist_b);
  obs::prof::label_range("walk.succ_b", succ_b);
  obs::prof::label_range("walk.counter", counter);

  // Phase B: rank[i] = -1 (marker value).
  obs::label_next_region("lr.rank-init");
  simk::spawn_workers(machine, simk::auto_workers(machine, n, params.workers),
                      fill_kernel, rank, i64{-1});
  machine.run_region();

  // Phase C: mark the walk heads.
  {
    const i64 w_workers =
        simk::auto_workers(machine, w_count, params.workers);
    obs::label_next_region("lr.mark-heads");
    simk::spawn_workers(machine, w_workers, mark_heads_kernel, heads, rank);
    machine.run_region();
  }

  // Phase D: the walks (dynamically scheduled unless the ablation asks for
  // block scheduling). len[w] seeds dist buffer 0 directly.
  const simk::Schedule schedule = params.block_schedule
                                      ? simk::Schedule::kStatic
                                      : simk::Schedule::kDynamic;
  counter.set(0, 0);
  obs::label_next_region("lr.walks");
  obs::counter_add("lr.num_walks", w_count);
  simk::spawn_workers(machine,
                      simk::auto_workers(machine, w_count, params.workers),
                      walk_kernel, lst, rank, heads, len, succ_a, tail,
                      counter.addr(0), schedule);
  machine.run_region();

  // Phase E: pointer doubling over the walk records (double-buffered; the
  // final dist values land in whichever buffer the round parity says).
  SimArray<i64> dist = len;
  SimArray<i64> succ = succ_a;
  {
    const i64 w_workers =
        simk::auto_workers(machine, w_count, params.workers);
    const int rounds =
        std::bit_width(static_cast<u64>(std::max<i64>(w_count - 1, 1))) + 1;
    SimArray<i64> dist_other = dist_b;
    SimArray<i64> succ_other = succ_b;
    for (int r = 0; r < rounds; ++r) {
      obs::label_next_region("lr.jump#" + std::to_string(r + 1));
      simk::spawn_workers(machine, w_workers, jump_round_kernel, dist, succ,
                          dist_other, succ_other);
      machine.run_region();
      std::swap(dist, dist_other);
      std::swap(succ, succ_other);
    }
  }

  // Phase F: final ranks.
  counter.set(0, 0);
  obs::label_next_region("lr.final-ranks");
  simk::spawn_workers(machine,
                      simk::auto_workers(machine, w_count, params.workers),
                      final_rank_kernel, lst, rank, heads, dist, tail,
                      counter.addr(0), schedule);
  machine.run_region();

  return rank.to_vector();
}

}  // namespace archgraph::core
