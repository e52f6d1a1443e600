// The simulated-thread coroutine type and its operation awaitables.
//
// A kernel is an ordinary C++20 coroutine:
//
//   SimThread worker(Ctx ctx, Args...) {
//     i64 v = co_await ctx.load(a);     // 1 issue slot + memory latency
//     co_await ctx.compute(3);          // 3 ALU instructions
//     co_await ctx.store(b, v + 1);     // 1 issue slot + memory latency
//   }
//
// Between co_awaits the coroutine runs host-native at zero simulated cost, so
// by convention every kernel charges its ALU work explicitly with compute().
// The same kernel runs unchanged on the MTA and SMP machine models — only the
// per-operation timing differs. This is the machine-neutral program
// representation the whole reproduction rests on.
//
// A simulated thread is exactly one coroutine frame. Kernels write their
// loops inline and share loop shapes through plain awaitables that wrap an
// OpAwaiter (core/kernels/sim_par.hpp), never through nested coroutines: a
// nest would model nothing and cost the host a frame and a resume per level.
//
// Op publication. Each Ctx op writes its Operation into the thread's
// `pending` slot when it is *called*, and returns an OpAwaiter that holds
// only the ThreadState pointer; suspending does nothing more. GCC gives every
// co_await its own frame slot for the awaiter, so a pointer-sized awaiter
// instead of one carrying a whole Operation roughly halves each kernel's
// frame. The protocol is safe because:
//   * `pending` stays intact across the resume: the suspended OpAwaiter reads
//     pending.result as the value of its co_await in await_resume, before
//     the kernel can call its next op (which overwrites `pending`), and the
//     resume ends at that next op's suspension or at final_suspend (kDone);
//   * no kernel builds two ops before awaiting the first (no expression
//     holds two co_awaits, and awaiters are never stored), so a published
//     op is always the one the next suspension hands the machine;
//   * frames start suspended (initial_suspend), so nothing is published
//     before the machine first advances the thread.
// An awaitable that may skip its suspension (await_ready() true) publishes
// nothing in that case; see simk::Items.
#pragma once

#include <coroutine>
#include <exception>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/frame_pool.hpp"
#include "sim/types.hpp"

namespace archgraph::sim {

/// Per-thread bookkeeping owned by the machine. The coroutine communicates
/// with its machine exclusively through `pending`. Scheduling state the
/// machines' event loops scan (status, pending op kind) lives in the
/// Machine's structure-of-arrays mirrors, not here: this block holds only
/// what the kernel side of the seam needs.
struct ThreadState {
  enum class Status : u8 {
    kRunnable,    // has a pending op awaiting issue
    kWaitMemory,  // op in flight
    kWaitSync,    // blocked on a full/empty tag
    kWaitBarrier,
    kFinished,
  };

  /// The kernel's coroutine frame: advance() resumes it, and the machine
  /// destroys it at region teardown.
  std::coroutine_handle<> handle;
  Operation pending;
  std::exception_ptr error;

  u32 id = 0;         // dense thread index within the region
  u32 processor = 0;  // assigned by the machine at admission

  /// Resumes the coroutine until its next operation (or completion).
  /// Afterwards `pending.kind` is the new op, or kDone. Inline: the machines
  /// call it once per simulated operation.
  void advance() {
    AG_DCHECK(handle && !handle.done(), "advancing a finished thread");
    handle.resume();
    AG_DCHECK(pending.kind != OpKind::kNone, "kernel suspended without an op");
  }
};

/// Coroutine return object. The machine takes ownership of the handle at
/// spawn; a SimThread that is never adopted destroys its frame on destruction.
class SimThread {
 public:
  struct promise_type {
    ThreadState* state = nullptr;

    // Frames come from the thread-local pool (frame_pool.hpp): fine-grain
    // kernels spawn enough short-lived threads that malloc'ing every frame
    // is a first-order host cost.
    static void* operator new(std::size_t size) {
      return detail::frame_pool().alloc(size);
    }
    static void operator delete(void* p, std::size_t size) noexcept {
      detail::frame_pool().free(p, size);
    }

    SimThread get_return_object() {
      return SimThread{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept {
      if (state != nullptr) {
        state->pending = Operation{.kind = OpKind::kDone};
      }
      return {};
    }
    void return_void() {}
    void unhandled_exception() {
      if (state != nullptr) {
        state->error = std::current_exception();
        state->pending = Operation{.kind = OpKind::kDone};
      } else {
        throw;  // no machine attached: propagate immediately
      }
    }
  };

  SimThread() = default;
  explicit SimThread(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}
  SimThread(SimThread&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  SimThread& operator=(SimThread&& other) noexcept;
  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;
  ~SimThread();

  /// Transfers the frame to `state` (machine adoption): the promise learns
  /// its ThreadState and this object releases ownership.
  std::coroutine_handle<> bind(ThreadState* state);

 private:
  std::coroutine_handle<promise_type> handle_;
};

/// Awaitable returned by every Ctx operation. The op is already in the
/// thread's `pending` slot (published by the Ctx call); the machine writes
/// the result there before it resumes the frame.
struct OpAwaiter {
  ThreadState* ts;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> /*kernel*/) const noexcept {}
  i64 await_resume() const noexcept { return ts->pending.result; }
};
static_assert(sizeof(OpAwaiter) == sizeof(ThreadState*),
              "an OpAwaiter is one pointer: the op lives in ThreadState");

/// Thread-side handle used inside kernels to issue operations. Every op
/// publishes itself in `pending` at the call (see the header comment), so
/// call one only as the operand of its co_await.
class Ctx {
 public:
  Ctx() = default;
  explicit Ctx(ThreadState* ts) : ts_(ts) {}

  /// Dense id of this thread within its region (0-based spawn order).
  u32 thread_id() const { return ts_->id; }

  OpAwaiter load(Addr a) const {
    return publish({.kind = OpKind::kLoad, .addr = a});
  }
  OpAwaiter store(Addr a, i64 v) const {
    return publish({.kind = OpKind::kStore, .addr = a, .value = v});
  }
  /// MTA readff: wait for full, read, leave full.
  OpAwaiter read_ff(Addr a) const {
    return publish({.kind = OpKind::kReadFF, .addr = a});
  }
  /// MTA readfe: wait for full, read, set empty (consumes the value).
  OpAwaiter read_fe(Addr a) const {
    return publish({.kind = OpKind::kReadFE, .addr = a});
  }
  /// MTA writeef: wait for empty, write, set full.
  OpAwaiter write_ef(Addr a, i64 v) const {
    return publish({.kind = OpKind::kWriteEF, .addr = a, .value = v});
  }
  /// int_fetch_add: atomic add at the bank; returns the old value.
  OpAwaiter fetch_add(Addr a, i64 delta) const {
    return publish({.kind = OpKind::kFetchAdd, .addr = a, .value = delta});
  }
  /// `slots` ALU instructions (each one issue slot / cycle).
  OpAwaiter compute(i64 slots = 1) const {
    return publish({.kind = OpKind::kCompute, .value = slots});
  }
  /// Region-wide barrier over all still-live threads.
  OpAwaiter barrier() const { return publish({.kind = OpKind::kBarrier}); }

 private:
  OpAwaiter publish(const Operation& op) const {
    ts_->pending = op;
    return {ts_};
  }

  ThreadState* ts_ = nullptr;
};

}  // namespace archgraph::sim
