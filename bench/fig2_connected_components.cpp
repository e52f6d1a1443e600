// Reproduces Figure 2: running times for connected components (Shiloach-
// Vishkin) on the Cray MTA (left) and Sun SMP (right) for p = 1, 2, 4, 8,
// on random graphs G(n, m) with m swept from 4n to 20n — the paper used
// n = 1M vertices; sizes here are scaled (documented in EXPERIMENTS.md).
// Also prints the §5 headline: MTA 5-6x faster than the SMP, plus a third
// machine column: the same machine-neutral kernel on the SIMT accelerator,
// where scattered CAS-heavy hooking pays per-lane memory transactions.
//
// The grid is the canned fig2 sweep spec (bench_util.hpp) executed through
// sweep::run_plan, so `archgraph_sweep run fig2` reproduces these exact
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
                const char* machine_name) {
  if (bj == nullptr) return;
  bj->record([&](obs::JsonWriter& w) {
    w.field("workload", "connected_components")
        .field("machine", machine_name)
        .field("n", r.cell.n)
        .field("m", r.cell.m)
        .field("procs", static_cast<i64>(r.meas.processors))
        .field("iterations", r.iterations)
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
  // third (cc_sv_mta), specs[1] the SMP third (cc_sv_smp), specs[2] the GPU
  // third (the machine-neutral cc_sv_mta kernel on the SIMT machine).
  const std::vector<std::string> specs = bench::fig2_sweep_specs(scale);
  const sweep::SweepSpec mta_spec = sweep::parse_sweep_spec(specs[0]);
  const sweep::SweepSpec smp_spec = sweep::parse_sweep_spec(specs[1]);
  const sweep::SweepSpec gpu_spec = sweep::parse_sweep_spec(specs[2]);
  const i64 n = mta_spec.ns[0];

  bench::print_header(
      "FIG 2 — Connected components running times (seconds, simulated)",
      "paper: Fig. 2, random graph n = 1M vertices, m = 4M..20M edges; here "
      "n = " + std::to_string(n) + " (scaled), m = 4n..20n");

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

  const auto cell_at = [&](const sweep::SweepSpec& spec, usize machine_idx,
                           i64 m) -> const sweep::CellResult& {
    sweep::SweepCell cell;
    cell.kernel = spec.kernels[0];
    cell.machine = spec.machines[machine_idx];
    cell.layout = spec.layouts[0];
    cell.n = n;
    cell.m = m;
    cell.seed = spec.seeds[0];
    return *by_id.at(cell.run_id());
  };

  Table mta_table({"m", "m/n", "p=1", "p=2", "p=4", "p=8"}, 6);
  Table smp_table({"m", "m/n", "p=1", "p=2", "p=4", "p=8"}, 6);
  Table gpu_table({"m", "m/n", "p=1", "p=2", "p=4", "p=8"}, 6);
  Table ratio_table(
      {"m/n", "SMP/MTA p=1", "SMP/MTA p=8", "paper", "GPU/MTA p=8"}, 2);

  // Machine-readable twin of the tables (one record per cell) when
  // ARCHGRAPH_BENCH_JSON=<dir> is set. The "host" object carries the
  // wall-clock cost of running the grid (ARCHGRAPH_BENCH_JOBS workers).
  bench::BenchJson bj("fig2_connected_components");
  bj.add_host_summary(run.jobs, run.cells.size(), run.host_seconds,
                      run.inputs_generated);
  bj.set_host_metrics(telemetry.registry.to_json());

  for (const i64 m : mta_spec.ms) {
    mta_table.row().add(m).add(m / n);
    smp_table.row().add(m).add(m / n);
    gpu_table.row().add(m).add(m / n);
    double mta1 = 0, mta8 = 0, smp1 = 0, smp8 = 0, gpu8 = 0;
    for (usize p = 0; p < mta_spec.machines.size(); ++p) {
      const sweep::CellResult& mta = cell_at(mta_spec, p, m);
      const sweep::CellResult& smp = cell_at(smp_spec, p, m);
      const sweep::CellResult& gpu = cell_at(gpu_spec, p, m);
      mta_table.add(mta.meas.seconds);
      smp_table.add(smp.meas.seconds);
      gpu_table.add(gpu.meas.seconds);
      record_run(&bj, mta, "mta");
      record_run(&bj, smp, "smp");
      record_run(&bj, gpu, "gpu");
      if (p == 0) {
        mta1 = mta.meas.seconds;
        smp1 = smp.meas.seconds;
      }
      if (p + 1 == mta_spec.machines.size()) {
        mta8 = mta.meas.seconds;
        smp8 = smp.meas.seconds;
        gpu8 = gpu.meas.seconds;
      }
    }
    ratio_table.row()
        .add(m / n)
        .add(smp1 / mta1)
        .add(smp8 / mta8)
        .add("5-6x")
        .add(gpu8 / mta8);
  }

  std::cout << "--- Cray MTA ---\n" << mta_table << '\n'
            << "--- Sun SMP ---\n" << smp_table << '\n'
            << "--- SIMT GPU ---\n" << gpu_table << '\n'
            << "--- §5 headline: MTA vs SMP (and the GPU postscript) ---\n"
            << ratio_table;
  bench::maybe_write_csv(mta_table, "fig2_mta");
  bench::maybe_write_csv(smp_table, "fig2_smp");
  bench::maybe_write_csv(gpu_table, "fig2_gpu");
  bench::maybe_write_csv(ratio_table, "fig2_ratios");
  bj.write();
  return 0;
}

int main() {
  return archgraph::bench::run_main("fig2_connected_components", bench_main);
}
