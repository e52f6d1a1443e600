// Ablation for the paper's §2.1 discussion: SMP performance on graph kernels
// is a cache story. Sweep L2 size, line size, and memory latency and watch
// list-ranking time move — on the Random layout it barely helps (no locality
// to exploit), on the Ordered layout lines and caches matter a lot.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/kernels/kernels.hpp"
#include "graph/linked_list.hpp"

static int bench_main() {
  using namespace archgraph;
  using bench::Scale;
  const Scale scale = bench::scale_from_env();
  const i64 n = scale == Scale::kQuick ? (1 << 14) : (1 << 17);

  bench::print_header(
      "ABL-CACHE — SMP cache-parameter sensitivity (list ranking, p = 1)",
      "paper §2.1: caching/prefetching help only with locality; random access "
      "defeats them");

  const graph::LinkedList ordered = graph::ordered_list(n);
  const graph::LinkedList random_l = graph::random_list(n, 0xcafeu);

  // Each sweep point is one machine-spec override on top of the paper SMP;
  // the sweeps below compose them as strings (later keys win).
  auto run = [&](const std::string& spec, const graph::LinkedList& list) {
    const auto m = sim::make_machine(spec);
    core::sim_rank_list_hj(*m, list);
    return m->cycles();
  };

  {
    Table t({"L2 bytes", "ordered cycles", "random cycles", "random/ordered"},
            2);
    for (const u64 l2_kb : {256u, 1024u, 4096u}) {
      const std::string spec = bench::scaled_smp_spec(1, l2_kb);
      const auto o = run(spec, ordered);
      const auto r = run(spec, random_l);
      t.row().add(static_cast<i64>(l2_kb * 1024)).add(o).add(r).add(
          static_cast<double>(r) / static_cast<double>(o));
    }
    std::cout << "--- L2 capacity sweep ---\n" << t << '\n';
  }

  {
    Table t({"line bytes", "ordered cycles", "random cycles",
             "random/ordered"},
            2);
    for (const u64 line : {32u, 64u, 128u}) {
      // scaled_smp_spec: out-of-cache regime (see EXPERIMENTS.md)
      const std::string spec =
          bench::scaled_smp_spec(1) + ",line=" + std::to_string(line);
      const auto o = run(spec, ordered);
      const auto r = run(spec, random_l);
      t.row().add(static_cast<i64>(line)).add(o).add(r).add(
          static_cast<double>(r) / static_cast<double>(o));
    }
    std::cout << "--- Line size sweep (bigger lines help ordered only) ---\n"
              << t << '\n';
  }

  {
    Table t({"mem latency", "ordered cycles", "random cycles",
             "random/ordered"},
            2);
    for (const sim::Cycle lat : {60, 130, 260}) {
      // scaled_smp_spec: out-of-cache regime (see EXPERIMENTS.md)
      const std::string spec =
          bench::scaled_smp_spec(1) + ",latency=" + std::to_string(lat);
      const auto o = run(spec, ordered);
      const auto r = run(spec, random_l);
      t.row().add(lat).add(o).add(r).add(static_cast<double>(r) /
                                         static_cast<double>(o));
    }
    std::cout << "--- Memory latency sweep (random pays full latency per "
                 "node) ---\n"
              << t;
  }
  return 0;
}

int main() {
  return archgraph::bench::run_main("ablation_smp_cache", bench_main);
}
