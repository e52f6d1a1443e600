// Algorithm x architecture cross: all four list-ranking programs on both
// machines. The paper's §4 observation — "algorithms should be designed with
// the target architecture in consideration" — as one table:
//   * the sequential chase is the SMP's friend and the MTA's famine;
//   * Wyllie is work-inefficient everywhere but the MTA forgives latency,
//     not extra instructions;
//   * Helman–JáJá (coarse threads, locality) is built for the SMP;
//   * the walk kernel (thousands of fine threads) is built for the MTA.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/kernels/kernels.hpp"
#include "core/listrank/listrank.hpp"
#include "graph/linked_list.hpp"

static int bench_main() {
  using namespace archgraph;
  using bench::Scale;
  const Scale scale = bench::scale_from_env();
  const i64 n = scale == Scale::kQuick ? (1 << 13) : (1 << 16);
  const u32 procs = 8;

  bench::print_header(
      "ABL-ALGO — every list-ranking algorithm on every machine (p = 8)",
      "paper §4: the right algorithm depends on the architecture");

  const graph::LinkedList list = graph::random_list(n, 0xa19u);
  const auto reference = core::rank_sequential(list);

  Table t({"algorithm", "MTA ms", "SMP ms", "MTA instr/node", "SMP/MTA"}, 3);

  auto row = [&](const std::string& name, auto&& run) {
    const auto mta = sim::make_machine(bench::paper_mta_spec(procs));
    AG_CHECK(run(*mta) == reference, "kernel self-check failed");
    const auto smp = sim::make_machine(bench::paper_smp_spec(procs));
    AG_CHECK(run(*smp) == reference, "kernel self-check failed");
    t.row()
        .add(name)
        .add(mta->seconds() * 1e3)
        .add(smp->seconds() * 1e3)
        .add(static_cast<double>(mta->stats().instructions) /
             static_cast<double>(n))
        .add(smp->seconds() / mta->seconds());
  };

  row("sequential chase", [&](sim::Machine& m) {
    return core::sim_rank_list_sequential(m, list);
  });
  row("Wyllie pointer jumping", [&](sim::Machine& m) {
    return core::sim_rank_list_wyllie(m, list);
  });
  row("Helman-JaJa (SMP program)", [&](sim::Machine& m) {
    core::HjLrParams params;
    // Give each machine its natural thread count.
    params.threads = m.concurrency() >= 128 ? 256 : 0;
    return core::sim_rank_list_hj(m, list, params);
  });
  row("marked walks (MTA program)", [&](sim::Machine& m) {
    core::WalkLrParams params;
    // On the SMP, cap workers at the processor count (no streams to absorb
    // thousands of threads).
    if (m.concurrency() < 128) {
      params.workers = m.concurrency();
      params.num_walks = 64 * m.concurrency();
    }
    return core::sim_rank_list_walk(m, list, params);
  });

  std::cout << t
            << "\nExpected shape: the sequential chase is competitive on the "
               "SMP and hopeless on the\nMTA (one thread cannot hide "
               "latency); the fine-grain walk program is the MTA's\nbest by "
               "an order of magnitude (on the SMP it must be re-tuned to "
               "coarse threads,\nbecoming Helman-JaJa in all but name); "
               "Wyllie pays its log-factor extra\ninstructions on BOTH "
               "machines — latency tolerance does not excuse extra work.\n";
  return 0;
}

int main() {
  return archgraph::bench::run_main("ablation_algorithms", bench_main);
}
