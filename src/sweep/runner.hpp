// The sweep executor: runs each cell of a plan on a fresh simulated machine,
// capturing the measurement (core::Measurement, i.e. cycles/seconds/
// utilization plus the full sim::MachineStats) and, optionally, the
// obs::TraceSession region/phase spans. The fig/table benches and the
// archgraph_sweep CLI both run cells through here, so "what the paper's
// experiment grid measures" has exactly one implementation.
//
// Cells are independent deterministic simulations, so the executor fans them
// out over host threads (RunOptions::jobs) with three guarantees:
//   * determinism — results and on_cell callbacks are delivered in plan
//     order, so jobs=N output is byte-identical to jobs=1;
//   * one input per key — concurrent cells that agree on (kernel-input kind,
//     layout, n, m, seed) share a single generated input, built exactly once
//     and dropped as soon as its last cell completes;
//   * simulated cycles are untouched — parallelism lives entirely on the
//     host; every cell still simulates its own fresh machine.
#pragma once

#include <functional>
#include <vector>

#include "core/experiment.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/trace.hpp"
#include "sweep/registry.hpp"
#include "sweep/spec.hpp"

namespace archgraph::sweep {

struct RunOptions {
  /// Attach an obs::TraceSession and keep its region/phase spans on the
  /// result (benches use them for per-phase breakdowns).
  bool trace = false;
  /// Self-check every kernel answer against the native reference. Cheap
  /// relative to simulation; disable only for timing the harness itself.
  bool verify = true;
  /// Host worker threads executing cells concurrently. 1 = serial on the
  /// calling thread; 0 = one per hardware thread (auto_jobs()). Simulated
  /// results are identical for every value — only host wall-clock changes.
  usize jobs = 1;
  /// Attach an obs::prof::ProfSession (interval profiler) to each cell and
  /// keep its compact profile JSON on the result. Profiling never changes
  /// simulated results and never enters the persisted JSONL records (the
  /// ci_smoke zero-drift gate binary-diffs profiled vs unprofiled output).
  bool profile = false;
  /// Profiler sampling interval in simulated cycles (0 = profiler default).
  sim::Cycle profile_interval = 0;
  /// When non-empty: implies `profile` and writes one Chrome trace per cell
  /// to <profile_dir>/<sanitized_run_id>-<hash>.trace.json (directory created
  /// if needed; the hash of the raw run ID keeps filenames unique after
  /// sanitizing), including the cell's phase spans when `trace` is also set.
  std::string profile_dir;
  /// Host-telemetry sink (not owned; null = no telemetry). run_plan registers
  /// the well-known instruments (see obs/telemetry/telemetry.hpp) in its
  /// registry and, when `telemetry->events` is set, emits run_started /
  /// cell_started / cell_finished / cell_failed / input_generated events.
  /// Strictly observational: simulated cycles and the sweep JSONL are
  /// byte-identical with this set or null.
  obs::telemetry::HostTelemetry* telemetry = nullptr;
};

/// The jobs value `RunOptions::jobs == 0` resolves to: the host's hardware
/// concurrency clamped into [1, 64] (hardware_concurrency() may report 0).
usize auto_jobs();

struct CellResult {
  SweepCell cell;
  core::Measurement meas;
  i64 iterations = -1;  // Shiloach-Vishkin rounds, -1 elsewhere
  bool verified = false;
  std::vector<obs::SpanRecord> spans;  // populated when RunOptions::trace
  /// Compact profile object (obs::prof::ProfSession::profile_json) when
  /// RunOptions::profile/profile_dir; benches embed it in their JSON
  /// documents. Never part of the persisted sweep JSONL record.
  std::string profile_json;
  /// Host wall-clock this cell took (simulation + verify, excluding input
  /// generation shared with other cells). Non-deterministic by nature, so it
  /// is never part of the persisted JSONL record.
  double host_seconds = 0.0;
  /// Bytes the cell's simulated memory mapped (SimMemory::mapped_bytes()).
  /// Host-side like host_seconds, so it reaches the event log only.
  i64 sim_memory_bytes = 0;
};

/// What run_plan() returns: every cell's result in plan order plus the host-
/// side execution summary (the measurable side of the parallel executor).
struct PlanRun {
  std::vector<CellResult> cells;
  /// Worker threads actually used (after resolving jobs=0 and clamping to
  /// the plan size).
  usize jobs = 1;
  /// Host wall-clock for the whole plan.
  double host_seconds = 0.0;
  /// Distinct inputs generated — cache effectiveness; equals the number of
  /// distinct input keys in the plan regardless of jobs.
  u64 inputs_generated = 0;

  double cells_per_sec() const {
    return host_seconds > 0.0
               ? static_cast<double>(cells.size()) / host_seconds
               : 0.0;
  }
};

/// Runs one cell: fresh sim::make_machine(cell.machine), generated input,
/// registry kernel, snapshot. Throws on unknown kernel, bad machine spec, or
/// failed self-check.
CellResult run_cell(const SweepCell& cell, const RunOptions& options = {});

/// Runs every cell of the plan, fanning out over options.jobs host threads.
/// `on_cell`, when given, observes each finished cell (index is 0-based;
/// total = plan.cells.size()) — the CLI streams JSONL and progress from it.
/// Callbacks are serialized and arrive in plan order no matter which worker
/// finished the cell, so streamed output is deterministic; a slow cell delays
/// the callbacks of later (already finished) cells, never reorders them.
/// Cells sharing an input key reuse one generated input (see above). An
/// exception in any cell is rethrown here after in-flight cells drain.
PlanRun run_plan(
    const SweepPlan& plan, const RunOptions& options = {},
    const std::function<void(const CellResult&, usize index, usize total)>&
        on_cell = {});

}  // namespace archgraph::sweep
