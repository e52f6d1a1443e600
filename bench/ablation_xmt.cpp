// Reconducting the study on the paper's §6 outlook machine: "To reduce
// costs, this system will incorporate commodity parts. In particular, the
// memory system will not be as flat as in the MTA-2. We will reconduct our
// studies on this architecture as soon as it is available."
//
// We make the simulated MTA's memory non-flat — remote banks cost extra
// round-trip latency — and rerun list ranking and connected components.
// The question the paper left open: does latency tolerance absorb NUMA?
// Answer the model gives: yes for throughput as long as parallelism is
// ample (utilization barely moves), at the cost of per-thread latency; with
// too few threads the extra latency shows up in full.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/kernels/kernels.hpp"
#include "graph/generators.hpp"
#include "graph/linked_list.hpp"

static int bench_main() {
  using namespace archgraph;
  using bench::Scale;
  const Scale scale = bench::scale_from_env();
  const i64 n = scale == Scale::kQuick ? (1 << 14) : (1 << 17);

  bench::print_header(
      "ABL-XMT — flat (MTA-2) vs. non-flat (next-gen) memory",
      "paper §6: 'the memory system will not be as flat ... we will "
      "reconduct our studies'");

  const graph::LinkedList list = graph::random_list(n, 0x41ceu);
  const graph::EdgeList g = graph::random_graph(n / 8, n, 0xcc2u);

  Table t({"workload", "p", "remote extra", "cycles", "utilization"}, 3);
  for (const u32 p : {4u, 8u}) {
    for (const sim::Cycle extra : {0, 100, 300}) {
      const std::string spec =
          bench::paper_mta_spec(p) + ",numa=" + std::to_string(extra);
      {
        const auto m = sim::make_machine(spec);
        core::sim_rank_list_walk(*m, list);
        t.row()
            .add("list ranking")
            .add(static_cast<i64>(p))
            .add(extra)
            .add(m->cycles())
            .add(m->utilization());
      }
      {
        const auto m = sim::make_machine(spec);
        core::sim_cc_sv_mta(*m, g);
        t.row()
            .add("connected components")
            .add(static_cast<i64>(p))
            .add(extra)
            .add(m->cycles())
            .add(m->utilization());
      }
    }
  }
  std::cout << t
            << "\nExpected shape: a remote penalty that ~doubles average "
               "latency (extra=100) costs only\n~1.2x cycles — 128 streams "
               "still mostly hide it. But hiding has a budget: utilization\n"
               "~ streams x g / (g + latency), so at extra=300 (~4x latency) "
               "the streams run out and\ncycles grow ~2.3x. The model's "
               "answer to §6's open question: multithreading carries\nover "
               "to a non-flat machine only while latency stays within the "
               "stream budget —\nwhich matches how the Cray XMT actually "
               "fared against the MTA-2.\n";
  return 0;
}

int main() { return archgraph::bench::run_main("ablation_xmt", bench_main); }
