#include "core/kernels/sim_par.hpp"

namespace archgraph::core::simk {

i64 auto_workers(const sim::Machine& machine, i64 items, i64 requested) {
  const i64 hw = machine.concurrency();
  const i64 want = requested > 0 ? std::min(requested, hw) : hw;
  return std::max<i64>(1, std::min(want, items));
}

}  // namespace archgraph::core::simk
