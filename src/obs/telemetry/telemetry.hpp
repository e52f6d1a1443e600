// The host-telemetry bundle the execution tier is instrumented against: one
// MetricsRegistry (always present — reading an idle registry is free) plus an
// optional EventLog. Producers (sweep::run_plan, the CLIs, benches) feed it;
// exporters read it after the run. Everything is observational: attaching a
// HostTelemetry to a run changes no simulated cycle and no persisted result
// byte — ci_smoke binary-diffs the sweep JSONL with telemetry on vs off.
//
// The well-known instrument names the sweep executor registers (help text in
// runner.cpp; all host-side, none simulated):
//
//   archgraph_sweep_cells_completed      counter  cells finished ok
//   archgraph_sweep_cells_failed         counter  cells that threw
//   archgraph_sweep_inputs_generated     counter  distinct inputs built
//   archgraph_sweep_input_cache_hits     counter  cache reuses of an input
//   archgraph_sweep_input_cache_misses   counter  acquires that had to build
//   archgraph_sweep_queue_depth          gauge    unclaimed cells remaining
//   archgraph_sweep_jobs                 gauge    resolved worker count
//   archgraph_sweep_plan_cells           gauge    plan size
//   archgraph_sweep_cell_host_seconds    histogram  per-cell host latency
//   archgraph_sweep_input_build_seconds  histogram  per-input generation time
#pragma once

#include <memory>

#include "obs/telemetry/events.hpp"
#include "obs/telemetry/metrics.hpp"

namespace archgraph::obs::telemetry {

struct HostTelemetry {
  MetricsRegistry registry;
  /// Optional structured event sink (--events-out). Null = no events.
  std::unique_ptr<EventLog> events;
};

}  // namespace archgraph::obs::telemetry
