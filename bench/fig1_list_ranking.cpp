// Reproduces Figure 1: running times for list ranking on the Cray MTA (left)
// and Sun SMP (right) for p = 1, 2, 4, 8 processors, on Ordered and Random
// lists, across problem sizes. Also prints the §5 headline ratios:
//   * SMP ordered vs. random  (paper: 3-4x)
//   * MTA vs. SMP on ordered  (paper: ~10x)
//   * MTA vs. SMP on random   (paper: ~35x)
//
// The grid is the canned fig1 sweep spec (bench_util.hpp) executed through
// sweep::run_plan, so `archgraph_sweep run fig1` reproduces these exact
// cells — this binary only arranges them into the paper's tables.
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace archgraph;

void record_run(bench::BenchJson* bj, const sweep::CellResult& r,
                const char* machine_name, const char* layout) {
  if (bj == nullptr) return;
  bj->record([&](obs::JsonWriter& w) {
    w.field("workload", "list_ranking")
        .field("machine", machine_name)
        .field("layout", layout)
        .field("n", r.cell.n)
        .field("procs", static_cast<i64>(r.meas.processors))
        .field("seconds", r.meas.seconds)
        .field("cycles", r.meas.cycles)
        .field("instructions", r.meas.stats.instructions)
        .field("utilization", r.meas.utilization);
    bench::add_phase_breakdown(w, r.spans);
    bench::add_profile(w, r.profile_json);
  });
}

}  // namespace

static int bench_main() {
  using bench::Scale;
  const Scale scale = bench::scale_from_env();

  // One definition of the grid: the canned sweep specs. specs[0] is the MTA
  // half (lr_walk), specs[1] the SMP half (lr_hj with the scaled L2).
  const std::vector<std::string> specs = bench::fig1_sweep_specs(scale);
  const sweep::SweepSpec mta_spec = sweep::parse_sweep_spec(specs[0]);
  const sweep::SweepSpec smp_spec = sweep::parse_sweep_spec(specs[1]);
  const std::vector<i64>& sizes = mta_spec.ns;

  bench::print_header(
      "FIG 1 — List ranking running times (seconds, simulated)",
      "paper: Fig. 1, lists up to 80M nodes on real hardware; here sizes are "
      "scaled down\nand times come from the architecture simulators "
      "(shape/ratio comparison, not absolute)");

  sweep::RunOptions options;
  options.trace = true;
  options.jobs = bench::jobs_from_env();
  options.profile = bench::profile_from_env();
  obs::telemetry::HostTelemetry telemetry;
  options.telemetry = &telemetry;
  std::map<std::string, const sweep::CellResult*> by_id;
  const sweep::PlanRun run = sweep::run_plan(sweep::expand_all(specs), options);
  for (const sweep::CellResult& r : run.cells) {
    by_id[r.cell.run_id()] = &r;
  }

  // Looks up the cell (machine_idx indexes the spec's processor-count axis).
  const auto cell_at = [&](const sweep::SweepSpec& spec, usize machine_idx,
                           sweep::Layout layout,
                           i64 n) -> const sweep::CellResult& {
    sweep::SweepCell cell;
    cell.kernel = spec.kernels[0];
    cell.machine = spec.machines[machine_idx];
    cell.layout = layout;
    cell.n = n;
    cell.seed = spec.seeds[0];
    return *by_id.at(cell.run_id());
  };

  // Machine-readable twin of the tables (one record per table cell) when
  // ARCHGRAPH_BENCH_JSON=<dir> is set; the ratio rows below are derived
  // quantities and are not recorded. The "host" object carries the
  // wall-clock cost of running the grid (ARCHGRAPH_BENCH_JOBS workers).
  bench::BenchJson bj("fig1_list_ranking");
  bj.add_host_summary(run.jobs, run.cells.size(), run.host_seconds,
                      run.inputs_generated);
  bj.set_host_metrics(telemetry.registry.to_json());

  for (const sweep::Layout layout :
       {sweep::Layout::kOrdered, sweep::Layout::kRandom}) {
    const char* name = layout == sweep::Layout::kOrdered ? "Ordered"
                                                         : "Random";
    Table mta_table({std::string("n (") + name + ")", "p=1", "p=2", "p=4",
                     "p=8"},
                    6);
    Table smp_table({std::string("n (") + name + ")", "p=1", "p=2", "p=4",
                     "p=8"},
                    6);
    for (const i64 n : sizes) {
      mta_table.row().add(n);
      smp_table.row().add(n);
      for (usize p = 0; p < mta_spec.machines.size(); ++p) {
        const sweep::CellResult& mta = cell_at(mta_spec, p, layout, n);
        const sweep::CellResult& smp = cell_at(smp_spec, p, layout, n);
        mta_table.add(mta.meas.seconds);
        smp_table.add(smp.meas.seconds);
        record_run(&bj, mta, "mta", name);
        record_run(&bj, smp, "smp", name);
      }
    }
    std::cout << "--- Cray MTA (" << name << " list) ---\n"
              << mta_table << '\n'
              << "--- Sun SMP (" << name << " list) ---\n"
              << smp_table << '\n';
    bench::maybe_write_csv(mta_table, std::string{"fig1_mta_"} + name);
    bench::maybe_write_csv(smp_table, std::string{"fig1_smp_"} + name);
  }

  // Headline ratios at the largest size, p = 1 and p = 8 (machine axis
  // indices 0 and 3) — straight lookups into the already-run grid.
  const i64 n = sizes.back();
  const auto seconds = [&](const sweep::SweepSpec& spec, usize machine_idx,
                           sweep::Layout layout) {
    return cell_at(spec, machine_idx, layout, n).meas.seconds;
  };
  using sweep::Layout;
  Table ratios({"quantity", "paper", "measured(p=1)", "measured(p=8)"}, 2);
  auto ratio_row = [&](const std::string& name, const std::string& paper,
                       double r1, double r8) {
    ratios.row().add(name).add(paper).add(r1).add(r8);
  };
  const double smp_ord_1 = seconds(smp_spec, 0, Layout::kOrdered);
  const double smp_ord_8 = seconds(smp_spec, 3, Layout::kOrdered);
  const double smp_rnd_1 = seconds(smp_spec, 0, Layout::kRandom);
  const double smp_rnd_8 = seconds(smp_spec, 3, Layout::kRandom);
  const double mta_ord_1 = seconds(mta_spec, 0, Layout::kOrdered);
  const double mta_ord_8 = seconds(mta_spec, 3, Layout::kOrdered);
  const double mta_rnd_1 = seconds(mta_spec, 0, Layout::kRandom);
  const double mta_rnd_8 = seconds(mta_spec, 3, Layout::kRandom);
  ratio_row("SMP random / SMP ordered", "3-4x", smp_rnd_1 / smp_ord_1,
            smp_rnd_8 / smp_ord_8);
  ratio_row("SMP ordered / MTA ordered", "~10x", smp_ord_1 / mta_ord_1,
            smp_ord_8 / mta_ord_8);
  ratio_row("SMP random / MTA random", "~35x", smp_rnd_1 / mta_rnd_1,
            smp_rnd_8 / mta_rnd_8);
  ratio_row("MTA random / MTA ordered", "~1x", mta_rnd_1 / mta_ord_1,
            mta_rnd_8 / mta_ord_8);
  std::cout << "--- §5 headline ratios (n = " << n << ") ---\n" << ratios;
  bench::maybe_write_csv(ratios, "fig1_ratios");
  bj.write();
  return 0;
}

int main() {
  return archgraph::bench::run_main("fig1_list_ranking", bench_main);
}
