#include "core/experiment.hpp"

namespace archgraph::core {

Measurement snapshot(const sim::Machine& machine) {
  Measurement m;
  m.seconds = machine.seconds();
  m.cycles = machine.cycles();
  m.utilization = machine.utilization();
  m.processors = machine.processors();
  m.stats = machine.stats();
  return m;
}

}  // namespace archgraph::core
