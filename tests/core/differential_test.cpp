// Randomized differential testing: every implementation of a problem must
// agree with every other on a stream of random instances — the library-wide
// safety net behind the per-module suites.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "core/concomp/concomp.hpp"
#include "core/experiment.hpp"
#include "core/kernels/kernels.hpp"
#include "core/listrank/listrank.hpp"
#include "graph/generators.hpp"
#include "graph/linked_list.hpp"
#include "sim/machine_spec.hpp"

namespace archgraph::core {
namespace {

TEST(Differential, AllListRankersAgreeOnRandomInstances) {
  rt::ThreadPool pool(4);
  Prng rng(0xd1ffu);
  for (int trial = 0; trial < 25; ++trial) {
    const i64 n = 1 + static_cast<i64>(rng.below(3000));
    const graph::LinkedList list = graph::random_list(n, rng());
    const auto expected = rank_sequential(list);
    ASSERT_EQ(rank_wyllie(pool, list), expected) << "trial " << trial;
    ASSERT_EQ(rank_helman_jaja(pool, list), expected) << "trial " << trial;
    CompactionParams cparams;
    cparams.base_size = 32;
    cparams.compaction_ratio = 4;
    ASSERT_EQ(rank_by_compaction(pool, list, cparams), expected)
        << "trial " << trial;
  }
}

TEST(Differential, AllSimulatedRankersAgreeOnRandomInstances) {
  Prng rng(0xd1f2u);
  for (int trial = 0; trial < 10; ++trial) {
    const i64 n = 1 + static_cast<i64>(rng.below(1500));
    const graph::LinkedList list = graph::random_list(n, rng());
    const auto expected = rank_sequential(list);
    const auto mta = sim::make_machine("mta:procs=2");
    ASSERT_EQ(sim_rank_list_walk(*mta, list), expected) << "trial " << trial;
    const auto smp = sim::make_machine("smp:procs=2");
    ASSERT_EQ(sim_rank_list_hj(*smp, list), expected) << "trial " << trial;
    const auto mta2 = sim::make_machine("mta");
    ASSERT_EQ(sim_rank_list_wyllie(*mta2, list), expected)
        << "trial " << trial;
    const auto smp2 = sim::make_machine("smp");
    ASSERT_EQ(sim_rank_list_sequential(*smp2, list), expected)
        << "trial " << trial;
  }
}

TEST(Differential, AllCcImplementationsAgreeOnRandomInstances) {
  Prng rng(0xd1f3u);
  for (int trial = 0; trial < 15; ++trial) {
    const auto n = static_cast<NodeId>(2 + rng.below(400));
    const i64 max_edges = n * (n - 1) / 2;
    const i64 m = static_cast<i64>(rng.below(
        static_cast<u64>(std::min<i64>(max_edges, 3 * n)) + 1));
    const graph::EdgeList g = graph::random_graph(n, m, rng());
    const auto truth = cc_union_find(g);
    ASSERT_EQ(cc_bfs(graph::CsrGraph::from_edges(g)), truth) << trial;
    ASSERT_EQ(cc_dfs(graph::CsrGraph::from_edges(g)), truth) << trial;
  }
}

TEST(Differential, SimulatedCcAgreesOnRandomInstances) {
  Prng rng(0xd1f4u);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<NodeId>(2 + rng.below(300));
    const i64 max_edges = n * (n - 1) / 2;
    const i64 m = static_cast<i64>(rng.below(
        static_cast<u64>(std::min<i64>(max_edges, 2 * n)) + 1));
    const graph::EdgeList g = graph::random_graph(n, m, rng());
    const auto truth = cc_union_find(g);
    const auto mta = sim::make_machine("mta:procs=2");
    ASSERT_EQ(sim_cc_sv_mta(*mta, g).labels, truth) << trial;
    const auto smp = sim::make_machine("smp:procs=2");
    ASSERT_EQ(sim_cc_sv_smp(*smp, g).labels, truth) << trial;
    const auto smp_seq = sim::make_machine("smp");
    ASSERT_EQ(sim_cc_union_find_sequential(*smp_seq, g), truth) << trial;
  }
}

TEST(Differential, GenericPrefixAgreesWithRankDerivedSums) {
  rt::ThreadPool pool(3);
  Prng rng(0xd1f6u);
  for (int trial = 0; trial < 10; ++trial) {
    const i64 n = 1 + static_cast<i64>(rng.below(2000));
    const graph::LinkedList list = graph::random_list(n, rng());
    std::vector<i64> values(static_cast<usize>(n));
    for (auto& v : values) v = rng.range(-5, 5);
    const auto expected = prefix_list_sequential(
        list, values, [](i64 a, i64 b) { return a + b; });
    const auto actual = prefix_list_helman_jaja(
        pool, list, values, i64{0}, [](i64 a, i64 b) { return a + b; });
    ASSERT_EQ(actual, expected) << trial;
  }
}

}  // namespace
}  // namespace archgraph::core
