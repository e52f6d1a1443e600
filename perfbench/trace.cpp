// perfbench_trace — the host-time benchmark's traced run. Executes one sweep
// plan serially and times each layer from outside, by wrapping the library's
// public calls in the order sweep::run_plan makes them:
//
//   sweep.expand_s   sweep::expand_all
//   graph.gen_s      sweep::make_input (once per distinct input, as the
//                    runner's input cache does)
//   sim.build_s      sim::parse_machine_spec + sim::make_machine
//   sim.<m>.region_s Machine::run_region, timed by a RegionObserver owned by
//                    this file (begin -> end of every region)
//   core.host_s      KernelInfo::run(verify=false) minus its regions: the
//                    kernel's host-side code between regions
//   core.verify_s    the sequential references the registry's self-check
//                    calls (rank_sequential, cc_union_find, color_greedy_seq,
//                    bfs_tree_seq, plus the coloring/BFS validators)
//   sweep.emit_s     core::snapshot + sweep::to_record + sweep::record_json +
//                    the JSONL write
//
// Usage: perfbench_trace --out RECORDS.jsonl SPEC...
// Writes one result record per cell to RECORDS.jsonl (the same schema as
// `archgraph_sweep run --out`, with verified=false) and prints one JSON
// object on stdout: the layer times and, per machine, the region time and
// the sums of the simulated counters.
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "core/concomp/concomp.hpp"
#include "core/experiment.hpp"
#include "core/listrank/listrank.hpp"
#include "graph/csr_graph.hpp"
#include "graph/validate.hpp"
#include "obs/json.hpp"
#include "sim/machine_spec.hpp"
#include "sweep/registry.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace {

using namespace archgraph;

/// Host seconds spent inside Machine::run_region, summed over regions.
class RegionClock final : public sim::RegionObserver {
 public:
  void on_region_begin(const sim::Machine&) override { start_ = Clock::now(); }
  void on_barrier_release(const sim::Machine&, sim::Cycle) override {}
  void on_region_end(const sim::Machine&) override {
    seconds_ += std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double seconds() const { return seconds_; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_{};
  double seconds_ = 0.0;
};

/// The runner's input-cache key (sweep/runner.cpp): cells agreeing on it
/// share one generated input.
std::string input_key(const sweep::KernelInfo& kernel,
                      const sweep::SweepCell& cell) {
  return std::string(kernel.input == sweep::InputKind::kList ? "list"
                                                             : "graph") +
         '/' + sweep::layout_name(cell.layout) + "/n=" +
         std::to_string(cell.n) +
         "/m=" + std::to_string(sweep::resolved_m(kernel, cell)) +
         "/seed=" + std::to_string(sweep::resolved_seed(kernel, cell));
}

/// The sequential reference work the registry's self-check does for this
/// kernel. The simulated answer is not available with verify=false, so the
/// final equality compare is left out; the validators run on the reference
/// answer instead, which costs the same.
void run_reference(const sweep::KernelInfo& kernel,
                   const sweep::KernelInput& input) {
  if (kernel.input == sweep::InputKind::kList) {
    AG_CHECK(core::rank_sequential(input.list).size() ==
                 static_cast<usize>(input.list.size()),
             "rank_sequential returned the wrong length");
    return;
  }
  const std::string& name = kernel.name;
  if (name.starts_with("cc_")) {
    AG_CHECK(core::cc_union_find(input.graph).size() ==
                 static_cast<usize>(input.graph.num_vertices()),
             "cc_union_find returned the wrong length");
  } else if (name.starts_with("color_")) {
    const std::vector<i64> colors =
        core::color_greedy_seq(graph::CsrGraph::from_edges(input.graph));
    AG_CHECK(graph::validate::is_proper_coloring(input.graph, colors),
             "color_greedy_seq is not a proper coloring");
  } else if (name.starts_with("bfs_")) {
    const core::BfsForest forest =
        core::bfs_tree_seq(graph::CsrGraph::from_edges(input.graph));
    AG_CHECK(graph::validate::is_bfs_forest(input.graph, forest.parent,
                                            forest.level),
             "bfs_tree_seq is not a BFS forest");
  } else {
    AG_CHECK(false, "no sequential reference known for kernel '" + name + "'");
  }
}

/// Simulated-counter sums over one machine's cells.
struct MachineSums {
  double region_s = 0.0;
  sim::MachineStats stats;
};

void add_stats(sim::MachineStats& sum, const sim::MachineStats& s) {
  sum.instructions += s.instructions;
  sum.memory_ops += s.memory_ops;
  sum.barriers += s.barriers;
  sum.regions += s.regions;
  sum.threads += s.threads;
  sum.cycles += s.cycles;
  sum.l1_hits += s.l1_hits;
  sum.l2_hits += s.l2_hits;
  sum.mem_fills += s.mem_fills;
}

int run(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> spec_texts;
  for (usize i = 0; i < args.size(); ++i) {
    if (args[i] == "--out") {
      AG_CHECK(i + 1 < args.size(), "--out needs a file path");
      out_path = args[++i];
    } else {
      AG_CHECK(args[i].rfind("--", 0) != 0,
               "unknown flag '" + args[i] + "' (valid: --out FILE)");
      spec_texts.push_back(args[i]);
    }
  }
  AG_CHECK(!out_path.empty() && !spec_texts.empty(),
           "usage: perfbench_trace --out RECORDS.jsonl SPEC...");
  std::ofstream out(out_path);
  AG_CHECK(out.good(), "cannot write --out file " + out_path);

  double expand_s = 0.0, gen_s = 0.0, build_s = 0.0, host_s = 0.0,
         verify_s = 0.0, emit_s = 0.0;
  i64 inputs = 0;
  std::array<MachineSums, 3> machines{};

  Timer timer;
  const sweep::SweepPlan plan = sweep::expand_all(spec_texts);
  expand_s = timer.seconds();

  std::unordered_map<std::string, usize> uses;
  for (const sweep::SweepCell& cell : plan.cells) {
    ++uses[input_key(sweep::find_kernel(cell.kernel), cell)];
  }
  std::unordered_map<std::string, std::unique_ptr<sweep::KernelInput>> cache;

  for (const sweep::SweepCell& cell : plan.cells) {
    const sweep::KernelInfo& kernel = sweep::find_kernel(cell.kernel);
    const std::string key = input_key(kernel, cell);
    std::unique_ptr<sweep::KernelInput>& input = cache[key];
    if (!input) {
      timer.reset();
      input = std::make_unique<sweep::KernelInput>(
          sweep::make_input(kernel, cell));
      gen_s += timer.seconds();
      ++inputs;
    }

    timer.reset();
    const sim::MachineSpec spec = sim::parse_machine_spec(cell.machine);
    const std::unique_ptr<sim::Machine> machine = sim::make_machine(spec);
    build_s += timer.seconds();

    RegionClock regions;
    machine->set_region_observer(&regions);
    timer.reset();
    const sweep::KernelRun run = kernel.run(*machine, *input, false);
    const double run_s = timer.seconds();
    machine->set_region_observer(nullptr);
    MachineSums& sums = machines[static_cast<usize>(spec.arch)];
    sums.region_s += regions.seconds();
    host_s += run_s - regions.seconds();

    timer.reset();
    run_reference(kernel, *input);
    verify_s += timer.seconds();

    timer.reset();
    sweep::CellResult result;
    result.cell = cell;
    result.meas = core::snapshot(*machine);
    result.iterations = run.iterations;
    out << sweep::record_json(sweep::to_record(result)) << '\n';
    emit_s += timer.seconds();

    add_stats(sums.stats, machine->stats());
    if (--uses[key] == 0) cache.erase(key);
  }
  out.flush();
  AG_CHECK(out.good(), "short write to " + out_path);

  obs::JsonWriter w;
  w.begin_object();
  w.key("layers")
      .begin_object()
      .field("sweep.expand_s", expand_s)
      .field("graph.gen_s", gen_s)
      .field("graph.inputs", inputs)
      .field("sim.build_s", build_s)
      .field("core.host_s", host_s)
      .field("core.verify_s", verify_s)
      .field("sweep.emit_s", emit_s)
      .end_object();
  w.key("machines").begin_object();
  for (const sim::MachineArch arch :
       {sim::MachineArch::kMta, sim::MachineArch::kSmp,
        sim::MachineArch::kGpu}) {
    const MachineSums& m = machines[static_cast<usize>(arch)];
    w.key(sim::arch_name(arch))
        .begin_object()
        .field("region_s", m.region_s)
        .field("instructions", m.stats.instructions)
        .field("cycles", static_cast<i64>(m.stats.cycles))
        .field("memory_ops", m.stats.memory_ops)
        .field("barriers", m.stats.barriers)
        .field("regions", m.stats.regions)
        .field("threads", m.stats.threads)
        .field("l1_hits", m.stats.l1_hits)
        .field("l2_hits", m.stats.l2_hits)
        .field("mem_fills", m.stats.mem_fills)
        .end_object();
  }
  w.end_object().end_object();
  std::cout << w.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << '\n';
    return 1;
  }
}
