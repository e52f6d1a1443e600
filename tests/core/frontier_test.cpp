// The frontier/traversal data shapes under the loops kernels write inline:
// sparse-vs-dense threshold, push deduplication, consume re-arming,
// edge/vertex scan coverage, and determinism of the frontier contents under
// dynamic scheduling on both machine models.
#include "core/kernels/frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/kernels/sim_par.hpp"
#include "graph/csr_graph.hpp"
#include "graph/generators.hpp"
#include "sim/machine_spec.hpp"

namespace archgraph::core {
namespace {

using frontier::EdgeSlots;
using frontier::Frontier;
using frontier::SimCsr;
using sim::Ctx;
using sim::SimArray;
using sim::SimThread;

TEST(FrontierDensity, ThresholdBoundaryIsInclusive) {
  // dense <=> size * denom >= n. Exactly at the threshold counts as dense.
  EXPECT_TRUE(Frontier::dense(25, 100, 4));   // 25*4 == 100
  EXPECT_FALSE(Frontier::dense(24, 100, 4));  // 96 < 100
  EXPECT_TRUE(Frontier::dense(26, 100, 4));

  // Empty frontier is sparse for every denom (unless n == 0).
  EXPECT_FALSE(Frontier::dense(0, 100, 4));
  EXPECT_TRUE(Frontier::dense(0, 0, 4));

  // denom == 1: dense only when everything is live.
  EXPECT_FALSE(Frontier::dense(99, 100, 1));
  EXPECT_TRUE(Frontier::dense(100, 100, 1));
}

TEST(FrontierHost, ResetAndDenseUseTheCursor) {
  const auto m = sim::make_machine("mta");
  Frontier f(m->memory(), 100);
  EXPECT_EQ(f.n(), 100);
  EXPECT_EQ(f.host_size(), 0);
  EXPECT_FALSE(f.host_dense(4));
  f.host_reset();
  EXPECT_EQ(f.host_size(), 0);
}

/// Deduplicating push, as the coloring kernels write it: claim the
/// membership flag, and on the winning claim append to the sparse list.
SimThread push_kernel(Ctx ctx, i64 worker, i64 workers, Frontier f,
                      SimArray<i64> items) {
  const simk::Range r = simk::static_block(items.size(), worker, workers);
  for (i64 i = r.lo; i < r.hi; ++i) {
    const i64 v = co_await ctx.load(items.addr(i));
    const i64 claimed = co_await ctx.fetch_add(f.flag_addr(v), 1);
    co_await ctx.compute(1);  // claim test
    if (claimed == 0) {
      const i64 idx = co_await ctx.fetch_add(f.count_addr(), 1);
      co_await ctx.store(f.vert_addr(idx), v);
    }
  }
}

std::vector<i64> sorted_contents(const Frontier& f) {
  std::vector<i64> got;
  for (i64 i = 0; i < f.host_size(); ++i) {
    got.push_back(f.verts().get(i));
  }
  std::sort(got.begin(), got.end());
  return got;
}

TEST(FrontierPush, ConcurrentDuplicatePushesDeduplicate) {
  for (const char* spec : {"mta", "smp:procs=4"}) {
    const auto m = sim::make_machine(spec);
    Frontier f(m->memory(), 16);
    // Every vertex of {0..15} pushed 8 times, racing across workers.
    SimArray<i64> items(m->memory(), 128);
    for (i64 i = 0; i < 128; ++i) items.set(i, i % 16);
    simk::spawn_workers(*m, 8, push_kernel, f, items);
    m->run_region();

    EXPECT_EQ(f.host_size(), 16) << spec;
    std::vector<i64> expected(16);
    for (i64 i = 0; i < 16; ++i) expected[static_cast<usize>(i)] = i;
    EXPECT_EQ(sorted_contents(f), expected) << spec;
    for (i64 v = 0; v < 16; ++v) {
      // The flag counts fetch_add claims (8 pushes each here); membership is
      // "nonzero", and consume / dense maps re-arm it back to 0.
      EXPECT_EQ(f.flags().get(v), 8) << spec << " v=" << v;
    }
  }
}

TEST(FrontierPush, FullFrontierIsDense) {
  const auto m = sim::make_machine("mta");
  Frontier f(m->memory(), 32);
  SimArray<i64> items(m->memory(), 32);
  for (i64 i = 0; i < 32; ++i) items.set(i, i);
  simk::spawn_workers(*m, 4, push_kernel, f, items);
  m->run_region();
  EXPECT_EQ(f.host_size(), 32);
  EXPECT_TRUE(f.host_dense(1));
  EXPECT_TRUE(f.host_dense(1000));
}

/// Dynamic sparse scan that consumes: load verts[i], re-arm its flag.
SimThread consume_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/, Frontier f,
                         SimArray<i64> counter, i64 size, i64 chunk,
                         SimArray<i64> hits) {
  while (true) {
    const simk::Range r = co_await simk::claim(ctx, counter.addr(0), size,
                                               chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
      const i64 v = co_await ctx.load(f.vert_addr(i));
      co_await ctx.store(f.flag_addr(v), 0);
      co_await ctx.fetch_add(hits.addr(v), 1);
    }
  }
}

TEST(FrontierSparseMap, ConsumeDeliversOnceAndReArmsFlags) {
  for (const i64 chunk : {1, 3, 64}) {
    const auto m = sim::make_machine("mta");
    Frontier f(m->memory(), 40);
    SimArray<i64> items(m->memory(), 60);
    for (i64 i = 0; i < 60; ++i) items.set(i, (i * 7) % 20);  // verts 0..19
    simk::spawn_workers(*m, 4, push_kernel, f, items);
    m->run_region();
    ASSERT_EQ(f.host_size(), 20);

    SimArray<i64> counter(m->memory(), 1);
    SimArray<i64> hits(m->memory(), 40);
    simk::spawn_workers(*m, 4, consume_kernel, f, counter, f.host_size(),
                        chunk, hits);
    m->run_region();
    for (i64 v = 0; v < 40; ++v) {
      EXPECT_EQ(hits.get(v), v < 20 ? 1 : 0) << "chunk=" << chunk;
      EXPECT_EQ(f.flags().get(v), 0) << "chunk=" << chunk;
    }
    // Re-armed flags + host reset make the frontier immediately reusable.
    f.host_reset();
    EXPECT_EQ(f.host_size(), 0);
  }
}

TEST(FrontierSparseMap, EmptyFrontierRunsNoBody) {
  const auto m = sim::make_machine("smp:procs=4");
  Frontier f(m->memory(), 10);
  SimArray<i64> counter(m->memory(), 1);
  SimArray<i64> hits(m->memory(), 10);
  simk::spawn_workers(*m, 4, consume_kernel, f, counter, 0, 4, hits);
  m->run_region();
  for (i64 v = 0; v < 10; ++v) {
    EXPECT_EQ(hits.get(v), 0);
  }
}

/// Dynamic dense scan: every vertex, clearing its flag.
SimThread dense_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/, Frontier f,
                       SimArray<i64> counter, i64 chunk, SimArray<i64> hits) {
  while (true) {
    const simk::Range r =
        co_await simk::claim(ctx, counter.addr(0), f.n(), chunk);
    if (r.empty()) break;
    for (i64 v = r.lo; v < r.hi; ++v) {
      co_await ctx.store(f.flag_addr(v), 0);
      co_await ctx.fetch_add(hits.addr(v), 1);
    }
  }
}

TEST(FrontierDenseMap, VisitsAllVerticesAndClearsFlags) {
  const auto m = sim::make_machine("mta");
  Frontier f(m->memory(), 30);
  // Populate a partial frontier first; the dense map ignores membership.
  SimArray<i64> items(m->memory(), 5);
  for (i64 i = 0; i < 5; ++i) items.set(i, i * 6);
  simk::spawn_workers(*m, 2, push_kernel, f, items);
  m->run_region();
  ASSERT_EQ(f.host_size(), 5);

  SimArray<i64> counter(m->memory(), 1);
  SimArray<i64> hits(m->memory(), 30);
  simk::spawn_workers(*m, 4, dense_kernel, f, counter, 8, hits);
  m->run_region();
  for (i64 v = 0; v < 30; ++v) {
    EXPECT_EQ(hits.get(v), 1) << "v=" << v;
    EXPECT_EQ(f.flags().get(v), 0) << "v=" << v;
  }
  f.host_reset();
  EXPECT_EQ(f.host_size(), 0);
}

TEST(FrontierPush, DynamicSchedulingIsDeterministicAcrossRuns) {
  // The frontier's *contents* (as a set) must not depend on the machine,
  // worker count, or chunking — only the order of verts[] may differ.
  std::vector<i64> reference;
  for (const char* spec : {"mta", "mta:procs=4", "smp:procs=2",
                           "smp:procs=8"}) {
    for (const i64 workers : {1, 4, 13}) {
      const auto m = sim::make_machine(spec);
      Frontier f(m->memory(), 64);
      SimArray<i64> items(m->memory(), 200);
      for (i64 i = 0; i < 200; ++i) items.set(i, (i * 37) % 50);
      simk::spawn_workers(*m, workers, push_kernel, f, items);
      m->run_region();
      const std::vector<i64> got = sorted_contents(f);
      if (reference.empty()) reference = got;
      EXPECT_EQ(got, reference) << spec << " workers=" << workers;
    }
  }
  EXPECT_EQ(reference.size(), 50u);
}

// ------------------------------------------------------------------ edge maps

SimThread degree_dynamic_kernel(Ctx ctx, i64 /*worker*/, i64 /*workers*/,
                                EdgeSlots es, SimArray<i64> counter, i64 chunk,
                                SimArray<i64> deg) {
  while (true) {
    const simk::Range r =
        co_await simk::claim(ctx, counter.addr(0), es.slots(), chunk);
    if (r.empty()) break;
    for (i64 i = r.lo; i < r.hi; ++i) {
      const i64 u = co_await ctx.load(es.eu.addr(i));
      co_await ctx.fetch_add(deg.addr(u), 1);
    }
  }
}

SimThread degree_static_kernel(Ctx ctx, i64 worker, i64 workers, EdgeSlots es,
                               SimArray<i64> deg) {
  const simk::Range r = simk::static_block(es.slots(), worker, workers);
  for (i64 i = r.lo; i < r.hi; ++i) {
    const i64 u = co_await ctx.load(es.eu.addr(i));
    co_await ctx.fetch_add(deg.addr(u), 1);
  }
}

std::vector<i64> host_degrees(const graph::EdgeList& g) {
  std::vector<i64> deg(static_cast<usize>(g.num_vertices()), 0);
  for (const graph::Edge& e : g.edges()) {
    ++deg[static_cast<usize>(e.u)];
    ++deg[static_cast<usize>(e.v)];
  }
  return deg;
}

TEST(EdgeMapSlots, BothSchedulesVisitEverySlotOnce) {
  const graph::EdgeList g = graph::random_graph(48, 120, 3);
  const std::vector<i64> expected = host_degrees(g);
  {
    const auto m = sim::make_machine("mta");
    EdgeSlots es(m->memory(), g);
    EXPECT_EQ(es.edges, 240);
    EXPECT_EQ(es.slots(), 240);
    SimArray<i64> counter(m->memory(), 1);
    SimArray<i64> deg(m->memory(), 48);
    simk::spawn_workers(*m, 8, degree_dynamic_kernel, es, counter, 16, deg);
    m->run_region();
    for (i64 v = 0; v < 48; ++v) {
      EXPECT_EQ(deg.get(v), expected[static_cast<usize>(v)]) << "v=" << v;
    }
  }
  {
    const auto m = sim::make_machine("smp:procs=4");
    EdgeSlots es(m->memory(), g);
    SimArray<i64> deg(m->memory(), 48);
    simk::spawn_workers(*m, 4, degree_static_kernel, es, deg);
    m->run_region();
    for (i64 v = 0; v < 48; ++v) {
      EXPECT_EQ(deg.get(v), expected[static_cast<usize>(v)]) << "v=" << v;
    }
  }
}

TEST(EdgeMapSlots, EmptyGraphHasOneNeutralizedSlot) {
  const auto m = sim::make_machine("mta");
  EdgeSlots es(m->memory(), graph::EdgeList(6));
  EXPECT_EQ(es.edges, 0);
  EXPECT_EQ(es.slots(), 1);
  // The dummy slot is (0, 0) — a self-edge every kernel body ignores.
  EXPECT_EQ(es.eu.get(0), 0);
  EXPECT_EQ(es.ev.get(0), 0);
}

SimThread neighbor_sum_kernel(Ctx ctx, i64 worker, i64 workers, SimCsr csr,
                              SimArray<i64> sum) {
  const simk::Range r = simk::static_block(csr.n, worker, workers);
  for (i64 u = r.lo; u < r.hi; ++u) {
    const i64 lo = co_await ctx.load(csr.offsets.addr(u));
    const i64 hi = co_await ctx.load(csr.offsets.addr(u + 1));
    for (i64 a = lo; a < hi; ++a) {
      const i64 v = co_await ctx.load(csr.targets.addr(a));
      co_await ctx.fetch_add(sum.addr(u), v + 1);
    }
  }
}

TEST(NeighborsMap, ScansExactlyTheCsrArcs) {
  const graph::EdgeList g = graph::random_graph(40, 90, 4);
  const graph::CsrGraph csr_host = graph::CsrGraph::from_edges(g);
  const auto m = sim::make_machine("mta");
  SimCsr csr(m->memory(), csr_host);
  EXPECT_EQ(csr.n, 40);
  SimArray<i64> sum(m->memory(), 40);
  simk::spawn_workers(*m, 4, neighbor_sum_kernel, csr, sum);
  m->run_region();
  for (NodeId u = 0; u < 40; ++u) {
    i64 expected = 0;
    for (const NodeId v : csr_host.neighbors(u)) {
      expected += v + 1;
    }
    EXPECT_EQ(sum.get(u), expected) << "u=" << u;
  }
}

}  // namespace
}  // namespace archgraph::core
