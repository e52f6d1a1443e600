// Greedy-coloring architecture study on the frontier substrate: the
// Çatalyürek/Feo/Gebremedhin experiment shape, run on the paper's two
// machines. Speculative recoloring converges in a handful of rounds on both
// architectures, but each extra round costs the SMP a round of
// barrier-separated cache-missing passes while the MTA's utilization stays
// flat — and the branch-avoiding inner loop (Green/Dukhan/Vuduc) changes the
// SMP's issued/stall mix while leaving the latency-tolerant MTA essentially
// untouched. EXPERIMENTS.md records the measured tables.
//
// The grid is the canned `coloring` sweep spec (bench_util.hpp) executed
// through sweep::run_plan, so `archgraph_sweep run coloring` reproduces
// these exact cells — this binary only arranges them into tables.
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/stats.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace archgraph;

/// "acct": {"issued": share, ...} — the cycle-accounting shares the stall-mix
/// tables print, embedded per record so the JSON twin carries them too.
void add_acct_shares(obs::JsonWriter& w, const sim::CycleBreakdown& b) {
  w.key("acct").begin_object();
  for (usize i = 0; i < sim::kCycleCatCount; ++i) {
    const auto cat = static_cast<sim::CycleCat>(i);
    if (b[cat] == 0) continue;
    w.field(sim::cycle_cat_name(cat), b.share(cat));
  }
  w.end_object();
}

void record_run(bench::BenchJson& bj, const sweep::CellResult& r,
                const char* machine_name, bool branch_avoiding) {
  bj.record([&](obs::JsonWriter& w) {
    w.field("workload", "greedy_coloring")
        .field("kernel", r.cell.kernel)
        .field("machine", machine_name)
        .field("variant", branch_avoiding ? "branch_avoiding" : "branchy")
        .field("n", r.cell.n)
        .field("m", r.cell.m)
        .field("procs", static_cast<i64>(r.meas.processors))
        .field("rounds", r.iterations)
        .field("seconds", r.meas.seconds)
        .field("cycles", r.meas.cycles)
        .field("instructions", r.meas.stats.instructions)
        .field("utilization", r.meas.utilization);
    add_acct_shares(w, r.meas.stats.breakdown);
    bench::add_phase_breakdown(w, r.spans);
    bench::add_profile(w, r.profile_json);
  });
}

/// One stall-mix row: cycles, then this machine's cycle-accounting shares as
/// percentages (categories the other machine owns stay zero and are skipped
/// by the caller's column choice).
void add_mix_row(Table& table, const char* variant,
                 const sweep::CellResult& r,
                 const std::vector<sim::CycleCat>& cats) {
  table.row().add(variant).add(static_cast<i64>(r.meas.cycles));
  for (const sim::CycleCat cat : cats) {
    table.add(100.0 * r.meas.stats.breakdown.share(cat));
  }
}

}  // namespace

static int bench_main() {
  using bench::Scale;
  const Scale scale = bench::scale_from_env();

  // One definition of the grid: the canned sweep specs. specs[0] is the MTA
  // third (branchy + branch-avoiding kernels), specs[1] the SMP third,
  // specs[2] the GPU third (the machine-neutral MTA kernels on the SIMT
  // machine, where speculative recoloring's data-dependent branches cost
  // divergence serialization).
  const std::vector<std::string> specs = bench::coloring_sweep_specs(scale);
  const sweep::SweepSpec mta_spec = sweep::parse_sweep_spec(specs[0]);
  const sweep::SweepSpec smp_spec = sweep::parse_sweep_spec(specs[1]);
  const sweep::SweepSpec gpu_spec = sweep::parse_sweep_spec(specs[2]);
  const i64 n = mta_spec.ns[0];

  bench::print_header(
      "COLORING — Greedy coloring rounds vs architecture (simulated)",
      "speculative distance-1 coloring (Çatalyürek et al. shape), random "
      "graph n = " + std::to_string(n) + ", m = 4n..20n, branchy and "
      "branch-avoiding inner loops");

  sweep::RunOptions options;
  options.trace = true;
  options.jobs = bench::jobs_from_env();
  options.profile = bench::profile_from_env();
  obs::telemetry::HostTelemetry telemetry;
  options.telemetry = &telemetry;
  const sweep::PlanRun run =
      sweep::run_plan(sweep::expand_all(specs), options);
  std::map<std::string, const sweep::CellResult*> by_id;
  for (const sweep::CellResult& r : run.cells) {
    by_id[r.cell.run_id()] = &r;
  }

  // kernel_idx: 0 = branchy, 1 = branch-avoiding (spec order).
  const auto cell_at = [&](const sweep::SweepSpec& spec, usize kernel_idx,
                           usize machine_idx, i64 m) -> const sweep::CellResult& {
    sweep::SweepCell cell;
    cell.kernel = spec.kernels[kernel_idx];
    cell.machine = spec.machines[machine_idx];
    cell.layout = spec.layouts[0];
    cell.n = n;
    cell.m = m;
    cell.seed = spec.seeds[0];
    return *by_id.at(cell.run_id());
  };

  bench::BenchJson bj("coloring_rounds");
  bj.add_host_summary(run.jobs, run.cells.size(), run.host_seconds,
                      run.inputs_generated);
  bj.set_host_metrics(telemetry.registry.to_json());

  const usize last_p = mta_spec.machines.size() - 1;  // p=8 column
  Table mta_table({"m", "m/n", "rounds", "sec p=1", "sec p=2", "sec p=4",
                   "sec p=8", "util p=1", "util p=8"},
                  4);
  Table smp_table({"m", "m/n", "rounds", "sec p=1", "sec p=2", "sec p=4",
                   "sec p=8", "cyc/round p=8"},
                  4);
  Table gpu_table({"m", "m/n", "rounds", "sec p=1", "sec p=2", "sec p=4",
                   "sec p=8", "diverge % p=8"},
                  4);

  for (const i64 m : mta_spec.ms) {
    mta_table.row().add(m).add(m / n);
    smp_table.row().add(m).add(m / n);
    gpu_table.row().add(m).add(m / n);
    mta_table.add(cell_at(mta_spec, 0, last_p, m).iterations);
    smp_table.add(cell_at(smp_spec, 0, last_p, m).iterations);
    gpu_table.add(cell_at(gpu_spec, 0, last_p, m).iterations);
    for (usize p = 0; p < mta_spec.machines.size(); ++p) {
      const sweep::CellResult& mta = cell_at(mta_spec, 0, p, m);
      const sweep::CellResult& smp = cell_at(smp_spec, 0, p, m);
      const sweep::CellResult& gpu = cell_at(gpu_spec, 0, p, m);
      mta_table.add(mta.meas.seconds);
      smp_table.add(smp.meas.seconds);
      gpu_table.add(gpu.meas.seconds);
      record_run(bj, mta, "mta", false);
      record_run(bj, smp, "smp", false);
      record_run(bj, gpu, "gpu", false);
      record_run(bj, cell_at(mta_spec, 1, p, m), "mta", true);
      record_run(bj, cell_at(smp_spec, 1, p, m), "smp", true);
      record_run(bj, cell_at(gpu_spec, 1, p, m), "gpu", true);
    }
    mta_table.add(cell_at(mta_spec, 0, 0, m).meas.utilization);
    mta_table.add(cell_at(mta_spec, 0, last_p, m).meas.utilization);
    const sweep::CellResult& smp8 = cell_at(smp_spec, 0, last_p, m);
    smp_table.add(smp8.iterations > 0
                      ? static_cast<double>(smp8.meas.cycles) /
                            static_cast<double>(smp8.iterations)
                      : 0.0);
    const sweep::CellResult& gpu8 = cell_at(gpu_spec, 0, last_p, m);
    gpu_table.add(100.0 * gpu8.meas.stats.breakdown.share(
                              sim::CycleCat::kDivergenceSerial));
  }

  // Branchy vs branch-avoiding at the densest point, p = max: the SMP's
  // issued/stall mix shifts, the MTA's barely moves.
  const i64 densest = mta_spec.ms.back();
  Table mta_mix({"variant (mta p=8)", "cycles", "issued %", "no_ready %",
                 "idle %"},
                1);
  const std::vector<sim::CycleCat> mta_cats{sim::CycleCat::kIssued,
                                            sim::CycleCat::kNoReadyStream,
                                            sim::CycleCat::kIdleNoThread};
  add_mix_row(mta_mix, "branchy", cell_at(mta_spec, 0, last_p, densest),
              mta_cats);
  add_mix_row(mta_mix, "branch-avoiding",
              cell_at(mta_spec, 1, last_p, densest), mta_cats);

  Table smp_mix({"variant (smp p=8)", "cycles", "issued %", "l1 %", "l2 %",
                 "mem %", "bus %", "rmw %", "barrier %"},
                1);
  const std::vector<sim::CycleCat> smp_cats{
      sim::CycleCat::kIssued,        sim::CycleCat::kL1MissWait,
      sim::CycleCat::kL2MissWait,    sim::CycleCat::kMemFillWait,
      sim::CycleCat::kBusContention, sim::CycleCat::kRmwSpin,
      sim::CycleCat::kBarrierWait};
  add_mix_row(smp_mix, "branchy", cell_at(smp_spec, 0, last_p, densest),
              smp_cats);
  add_mix_row(smp_mix, "branch-avoiding",
              cell_at(smp_spec, 1, last_p, densest), smp_cats);

  // The GPU's mix: the branch-avoiding variant exists to shrink exactly the
  // divergence column.
  Table gpu_mix({"variant (gpu p=8)", "cycles", "issued %", "diverge %",
                 "coalesce %", "bank %", "idle %"},
                1);
  const std::vector<sim::CycleCat> gpu_cats{
      sim::CycleCat::kIssued, sim::CycleCat::kDivergenceSerial,
      sim::CycleCat::kCoalesceWait, sim::CycleCat::kBankConflict,
      sim::CycleCat::kIdleNoThread};
  add_mix_row(gpu_mix, "branchy", cell_at(gpu_spec, 0, last_p, densest),
              gpu_cats);
  add_mix_row(gpu_mix, "branch-avoiding",
              cell_at(gpu_spec, 1, last_p, densest), gpu_cats);

  std::cout << "--- Cray MTA (branchy) ---\n" << mta_table << '\n'
            << "--- Sun SMP (branchy) ---\n" << smp_table << '\n'
            << "--- SIMT GPU (branchy) ---\n" << gpu_table << '\n'
            << "--- inner-loop variant at m = " << densest
            << " ---\n" << mta_mix << '\n' << smp_mix << '\n' << gpu_mix;
  bench::maybe_write_csv(mta_table, "coloring_mta");
  bench::maybe_write_csv(smp_table, "coloring_smp");
  bench::maybe_write_csv(gpu_table, "coloring_gpu");
  bench::maybe_write_csv(mta_mix, "coloring_mta_mix");
  bench::maybe_write_csv(smp_mix, "coloring_smp_mix");
  bench::maybe_write_csv(gpu_mix, "coloring_gpu_mix");
  bj.write();
  return 0;
}

int main() { return archgraph::bench::run_main("coloring_rounds", bench_main); }
