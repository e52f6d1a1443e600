// Shared parallel-loop vocabulary for simulator kernels.
//
// Every simulated algorithm in core/kernels is built from a few loop shapes.
// Each kernel writes its loops inline in its own coroutine, so a simulated
// thread is exactly one coroutine frame; the shapes share three
// non-coroutine building blocks that fix what claiming costs:
//
//   * static_block — block partition: worker w owns static_block(n, w,
//                    workers). No claiming cost: the bounds are registers.
//                    Barrier-separated SMP phases are a static_block loop
//                    followed by ctx.barrier().
//   * claim        — the MTA int_fetch_add idiom: one fetch_add of `chunk`
//                    on a shared counter (which must start at 0) claims the
//                    next chunk of [0, n). The awaited Range is empty once
//                    the counter has passed n; that final failed claim is
//                    charged like every other.
//   * Items        — the scheduling ablation knob: per-item claiming that is
//                    either dynamic (one fetch_add per item, including the
//                    final failed one) or static (one compute slot per item
//                    of the worker's block for the local increment + bound
//                    check), so a kernel exposes its schedule as data rather
//                    than as two code paths.
//
// A dynamic loop reads:
//
//   while (true) {
//     const simk::Range r = co_await simk::claim(ctx, counter, n, chunk);
//     if (r.empty()) break;
//     for (i64 i = r.lo; i < r.hi; ++i) co_await ctx.store(a.addr(i), 0);
//   }
//
// The awaitables suspend the kernel's own frame with exactly the op the
// hand-written loop would issue; none of them allocates. Like every Ctx op
// (sim/task.hpp), each publishes its op in the thread's `pending` slot when
// it is built and carries only what its resume needs: the ThreadState
// pointer plus a bound or the Items cursor.
#pragma once

#include <algorithm>
#include <coroutine>

#include "common/types.hpp"
#include "sim/machine.hpp"

namespace archgraph::core::simk {

/// Half-open index range [lo, hi); empty when lo >= hi.
struct Range {
  i64 lo = 0;
  i64 hi = 0;

  bool empty() const { return lo >= hi; }
};

/// Contiguous block of [0, n) for `worker` of `workers` (the first
/// n % workers blocks are one element larger).
inline Range static_block(i64 n, i64 worker, i64 workers) {
  const i64 base = n / workers;
  const i64 extra = n % workers;
  const i64 lo = worker * base + std::min(worker, extra);
  return Range{lo, lo + base + (worker < extra ? 1 : 0)};
}

/// Awaitable returned by claim(): one fetch_add, resumed as the claimed
/// Range. The chunk is the fetch_add's delta, still in `pending.value`.
struct ClaimAwaiter {
  sim::OpAwaiter op;
  i64 n;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> /*kernel*/) const noexcept {}
  Range await_resume() const noexcept {
    const i64 lo = op.await_resume();
    return Range{lo, std::min(n, lo + op.ts->pending.value)};
  }
};

/// Claims [lo, min(lo + chunk, n)) with one fetch_add on `counter`; the
/// range is empty once the counter has passed n.
inline ClaimAwaiter claim(sim::Ctx ctx, sim::Addr counter, i64 n, i64 chunk) {
  return ClaimAwaiter{ctx.fetch_add(counter, chunk), n};
}

/// How a claimed loop hands out iterations (the scheduling ablation knob).
enum class Schedule : u8 {
  kDynamic,  // shared-counter fetch_add claiming (MTA load balancing)
  kStatic,   // precomputed blocks; each claim costs one local ALU slot
};

inline const char* schedule_name(Schedule s) {
  return s == Schedule::kDynamic ? "dynamic" : "static";
}

/// Per-item claiming under a runtime Schedule. `co_await items.next(ctx)`
/// yields the next index, or -1 once this worker's share is exhausted.
/// Dynamic: one fetch_add of 1 on `counter` per item, including the final
/// failed claim. Static: one compute slot per item of the worker's
/// static_block, and nothing once the block is done. The two schedules issue
/// identical per-item work and differ only in the claiming cost, which is
/// the whole point of the scheduling ablation.
class Items {
 public:
  Items(Schedule schedule, sim::Addr counter, i64 worker, i64 workers, i64 n)
      : counter_(counter), n_(n), dynamic_(schedule == Schedule::kDynamic) {
    if (!dynamic_) {
      const Range r = static_block(n, worker, workers);
      next_ = r.lo;
      end_ = r.hi;
    }
  }

  struct Awaiter {
    Items& items;
    sim::OpAwaiter op;  // null once a static block is exhausted

    bool await_ready() const noexcept {
      return !items.dynamic_ && items.next_ >= items.end_;
    }
    void await_suspend(std::coroutine_handle<> /*kernel*/) const noexcept {}
    i64 await_resume() noexcept {
      if (items.dynamic_) {
        const i64 i = op.await_resume();
        return i < items.n_ ? i : -1;
      }
      return items.next_ < items.end_ ? items.next_++ : -1;
    }
  };

  /// An exhausted static block publishes nothing: await_ready() skips the
  /// suspension, so no op is left in `pending` that the machine never sees.
  Awaiter next(sim::Ctx ctx) {
    if (dynamic_) {
      return Awaiter{*this, ctx.fetch_add(counter_, 1)};
    }
    if (next_ < end_) {
      return Awaiter{*this, ctx.compute(1)};  // the local claim
    }
    return Awaiter{*this, {}};
  }

 private:
  sim::Addr counter_;
  i64 n_;
  bool dynamic_;
  i64 next_ = 0;  // static cursor within [next_, end_)
  i64 end_ = 0;
};

/// Spawns `workers` copies of `kernel(ctx, worker, workers, args...)`.
/// The caller still calls machine.run_region().
template <typename F, typename... Args>
void spawn_workers(sim::Machine& machine, i64 workers, F kernel,
                   Args... args) {
  for (i64 w = 0; w < workers; ++w) {
    machine.spawn(kernel, w, workers, args...);
  }
}

/// Worker count for a phase with `items` units of work. The result is always
/// in [1, min(machine.concurrency(), items)]: `requested <= 0` asks for one
/// worker per hardware thread slot, and an explicit `requested > 0` is still
/// clamped to the slot count — oversubscribing the simulated machine adds
/// admission queueing (MTA) or context switches (SMP) without modelling
/// anything the paper measured, so the cap is enforced rather than advisory.
i64 auto_workers(const sim::Machine& machine, i64 items, i64 requested);

}  // namespace archgraph::core::simk
