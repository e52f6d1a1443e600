// Reproduces Table 1: Cray MTA processor utilization for list ranking
// (random and ordered lists) and connected components, p = 1, 4, 8.
// Paper values:
//   list ranking random:  98% / 90% / 82%
//   list ranking ordered: 97% / 85% / 80%
//   connected components: 99% / 93% / 91%
// The paper's inputs were a 20M-node list and a graph with n = 1M,
// m = 20M (~ n log n) edges; ours are scaled down, which mainly lowers the
// p = 8 entries (fixed region-fork overheads amortize less).
//
// The grid is the canned table1 sweep spec (bench_util.hpp) executed through
// sweep::run_plan, so `archgraph_sweep run table1` reproduces these exact
// cells — this binary only arranges them into the paper's table.
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace archgraph;

std::string percent(double fraction) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(0) << 100.0 * fraction << "%";
  return os.str();
}

}  // namespace

static int bench_main() {
  using bench::Scale;
  const Scale scale = bench::scale_from_env();

  // One definition of the grid: the canned sweep specs, one per table row
  // (random list, ordered list, connected components).
  const std::vector<std::string> specs = bench::table1_sweep_specs(scale);
  const sweep::SweepSpec random_spec = sweep::parse_sweep_spec(specs[0]);
  const sweep::SweepSpec cc_spec = sweep::parse_sweep_spec(specs[2]);
  const i64 list_n = random_spec.ns[0];
  const i64 cc_n = cc_spec.ns[0];
  const i64 cc_m = cc_spec.ms[0];

  bench::print_header(
      "TABLE 1 — MTA processor utilization",
      "paper: 20M-node list / n=1M m=20M graph; ours: " +
          std::to_string(list_n) + "-node list, n=" + std::to_string(cc_n) +
          " m=" + std::to_string(cc_m) + " graph (scaled)");

  Table table({"workload", "p=1", "p=4", "p=8", "paper (p=1/4/8)"});
  bench::BenchJson bj("table1_utilization");

  sweep::RunOptions options;
  options.trace = true;
  options.jobs = bench::jobs_from_env();
  options.profile = bench::profile_from_env();
  // One registry across all three row sweeps — counters accumulate, so the
  // exported host_metrics describes the whole bench.
  obs::telemetry::HostTelemetry telemetry;
  options.telemetry = &telemetry;

  // One table row per canned spec, one cell per processor count. JSON
  // records carry the workload's printed name plus the per-phase breakdown
  // the printed table has no room for; the "host" object aggregates the
  // wall-clock cost across all three row sweeps.
  auto row = [&](const std::string& spec_text, const std::string& name,
                 i64 n, i64 m, const std::string& paper) {
    const sweep::PlanRun run =
        sweep::run_plan(sweep::expand(spec_text), options);
    bj.add_host_summary(run.jobs, run.cells.size(), run.host_seconds,
                        run.inputs_generated);
    table.row().add(name);
    for (const sweep::CellResult& r : run.cells) {
      bj.record([&](obs::JsonWriter& w) {
        w.field("workload", name)
            .field("machine", "mta")
            .field("n", n)
            .field("m", m)
            .field("procs", static_cast<i64>(r.meas.processors))
            .field("seconds", r.meas.seconds)
            .field("cycles", r.meas.cycles)
            .field("instructions", r.meas.stats.instructions)
            .field("utilization", r.meas.utilization);
        bench::add_phase_breakdown(w, r.spans);
        bench::add_profile(w, r.profile_json);
      });
      table.add(percent(r.meas.utilization));
    }
    table.add(paper);
  };

  row(specs[0], "list ranking, Random list", list_n, 0, "98% / 90% / 82%");
  row(specs[1], "list ranking, Ordered list", list_n, 0, "97% / 85% / 80%");
  row(specs[2], "connected components", cc_n, cc_m, "99% / 93% / 91%");

  std::cout << table;
  bench::maybe_write_csv(table, "table1_utilization");
  bj.set_host_metrics(telemetry.registry.to_json());
  bj.write();
  return 0;
}

int main() {
  return archgraph::bench::run_main("table1_utilization", bench_main);
}
