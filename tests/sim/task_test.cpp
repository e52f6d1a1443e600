// Tests of the coroutine plumbing itself, driven by a hand-rolled
// mini-scheduler (no machine model): advance() must surface each operation in
// program order with the right payloads, and results must flow back in.
#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/memory.hpp"

namespace archgraph::sim {
namespace {

SimThread three_ops(Ctx ctx, Addr a) {
  const i64 v = co_await ctx.load(a);
  co_await ctx.compute(5);
  co_await ctx.store(a, v + 1);
}

TEST(SimTask, OperationsSurfaceInProgramOrder) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = three_ops(ctx, 17);
  ts.handle = t.bind(&ts);

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kLoad);
  EXPECT_EQ(ts.pending.addr, 17u);
  ts.pending.result = 41;  // scheduler supplies the loaded value

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kCompute);
  EXPECT_EQ(ts.pending.value, 5);

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kStore);
  EXPECT_EQ(ts.pending.addr, 17u);
  EXPECT_EQ(ts.pending.value, 42);  // used the load result

  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ts.handle.destroy();
}

SimThread all_op_kinds(Ctx ctx) {
  co_await ctx.load(1);
  co_await ctx.store(2, 20);
  co_await ctx.read_ff(3);
  co_await ctx.read_fe(4);
  co_await ctx.write_ef(5, 50);
  co_await ctx.fetch_add(6, 60);
  co_await ctx.compute(7);
  co_await ctx.barrier();
}

TEST(SimTask, AllOperationKindsCarryPayloads) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = all_op_kinds(ctx);
  ts.handle = t.bind(&ts);

  const std::vector<std::pair<OpKind, Addr>> expected{
      {OpKind::kLoad, 1},    {OpKind::kStore, 2},   {OpKind::kReadFF, 3},
      {OpKind::kReadFE, 4},  {OpKind::kWriteEF, 5}, {OpKind::kFetchAdd, 6},
      {OpKind::kCompute, 0}, {OpKind::kBarrier, 0}};
  for (const auto& [kind, addr] : expected) {
    ts.advance();
    EXPECT_EQ(ts.pending.kind, kind);
    if (addr != 0) {
      EXPECT_EQ(ts.pending.addr, addr);
    }
  }
  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ts.handle.destroy();
}

SimThread empty_kernel(Ctx) { co_return; }

TEST(SimTask, EmptyKernelFinishesImmediately) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = empty_kernel(ctx);
  ts.handle = t.bind(&ts);
  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ts.handle.destroy();
}

SimThread throwing_kernel(Ctx ctx) {
  co_await ctx.compute(1);
  throw std::runtime_error("kernel failure");
}

TEST(SimTask, ExceptionIsCapturedNotPropagated) {
  ThreadState ts;
  Ctx ctx{&ts};
  SimThread t = throwing_kernel(ctx);
  ts.handle = t.bind(&ts);
  ts.advance();
  EXPECT_EQ(ts.pending.kind, OpKind::kCompute);
  ts.advance();  // must not throw here; error is stored
  EXPECT_EQ(ts.pending.kind, OpKind::kDone);
  ASSERT_TRUE(ts.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(ts.error), std::runtime_error);
  ts.handle.destroy();
}

TEST(SimTask, UnadoptedThreadCleansUpItsFrame) {
  ThreadState ts;
  Ctx ctx{&ts};
  {
    SimThread t = three_ops(ctx, 0);
    // destroyed without bind(): no leak (verified under ASan in CI; here we
    // just check it does not crash).
  }
  SUCCEED();
}

TEST(SimTask, EachOpIsPublishedWhenItIsCalled) {
  // The op reaches `pending` at the Ctx call, before any suspension: the
  // awaiter itself carries nothing but the ThreadState pointer.
  ThreadState ts;
  const Ctx ctx{&ts};
  // Each op is checked right after its call (the next call overwrites it).
  const auto check = [&](OpAwaiter aw, OpKind kind, Addr addr, i64 value) {
    EXPECT_EQ(aw.ts, &ts);
    EXPECT_EQ(ts.pending.kind, kind);
    EXPECT_EQ(ts.pending.addr, addr);
    EXPECT_EQ(ts.pending.value, value);
    EXPECT_EQ(ts.pending.result, 0);  // a fresh op carries no stale result
    ts.pending.result = 99;           // as if the machine had serviced it
  };
  check(ctx.load(11), OpKind::kLoad, 11, 0);
  check(ctx.store(12, -5), OpKind::kStore, 12, -5);
  check(ctx.read_ff(13), OpKind::kReadFF, 13, 0);
  check(ctx.read_fe(14), OpKind::kReadFE, 14, 0);
  check(ctx.write_ef(15, 7), OpKind::kWriteEF, 15, 7);
  check(ctx.fetch_add(16, 3), OpKind::kFetchAdd, 16, 3);
  check(ctx.compute(4), OpKind::kCompute, 0, 4);
  check(ctx.compute(), OpKind::kCompute, 0, 1);
  check(ctx.barrier(), OpKind::kBarrier, 0, 0);
  // The awaiter resumes with whatever result the machine wrote.
  const OpAwaiter aw = ctx.load(1);
  ts.pending.result = -42;
  EXPECT_EQ(aw.await_resume(), -42);
}

TEST(SimTask, ThreadIdIsVisibleToKernels) {
  ThreadState ts;
  ts.id = 37;
  Ctx ctx{&ts};
  EXPECT_EQ(ctx.thread_id(), 37u);
}

}  // namespace
}  // namespace archgraph::sim
