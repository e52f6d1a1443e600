// Experiment-level helpers: a measurement snapshot type shared by the benches
// and examples. The paper's machine presets are the machine specs "mta" and
// "smp" (sim/machine_spec.hpp).
#pragma once

#include "sim/machine.hpp"

namespace archgraph::core {

struct Measurement {
  double seconds = 0.0;
  sim::Cycle cycles = 0;
  double utilization = 0.0;  // Table 1's statistic
  u32 processors = 0;
  sim::MachineStats stats;
};

/// Captures a machine's accumulated state after running kernels on it.
Measurement snapshot(const sim::Machine& machine);

}  // namespace archgraph::core
