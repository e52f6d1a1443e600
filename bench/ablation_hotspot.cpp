// Ablation for two §2.2 remarks about the MTA memory system:
//   1. "logical addresses are hashed across physical memory to avoid
//      stride-induced hotspots" — we disable hashing and run a power-of-two
//      strided access pattern that lands on few banks.
//   2. "hotspots can occur [with fine-grain synchronization] ... they do
//      occasionally impact performance" — all threads fetch-add one counter
//      vs. per-thread counters.
#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "sim/memory.hpp"
#include "sim/mta/mta_machine.hpp"

namespace {

using namespace archgraph;
using sim::Addr;
using sim::Ctx;
using sim::SimArray;
using sim::SimThread;

SimThread strided_reader(Ctx ctx, SimArray<i64> data, i64 start, i64 stride,
                         i64 count) {
  // Load + accumulate + loop test fold into one 3-wide LIW instruction.
  i64 sink = 0;
  for (i64 k = 0; k < count; ++k) {
    sink += co_await ctx.load(data.addr((start + k * stride) % data.size()));
  }
  co_await ctx.store(data.addr(start % data.size()), sink);
}

SimThread counter_incrementer(Ctx ctx, Addr counter, i64 times) {
  for (i64 i = 0; i < times; ++i) {
    co_await ctx.fetch_add(counter, 1);
  }
}

sim::Cycle strided_run(bool hashed, i64 stride) {
  const auto m = sim::make_machine(bench::paper_mta_spec(8) +
                                   (hashed ? "" : ",hash=0"));
  SimArray<i64> data(m->memory(), 1 << 18);
  // Every thread walks the SAME stride-aligned address sequence (offset by
  // whole strides), as a strided matrix sweep would: unhashed, all of the
  // traffic lands on the few banks the stride selects.
  for (i64 t = 0; t < 1024; ++t) {
    m->spawn(strided_reader, data, t * stride, stride, i64{256});
  }
  m->run_region();
  return m->cycles();
}

sim::Cycle counter_run(bool shared) {
  const auto m = sim::make_machine(bench::paper_mta_spec(8));
  SimArray<i64> counters(m->memory(), 1024);
  for (i64 t = 0; t < 1024; ++t) {
    m->spawn(counter_incrementer, counters.addr(shared ? 0 : t), i64{64});
  }
  m->run_region();
  return m->cycles();
}

}  // namespace

static int bench_main() {
  bench::print_header("ABL-HOT — Hashed memory and synchronization hotspots",
                      "paper §2.2: hashing kills stride hotspots; shared "
                      "sync words can still serialize");

  {
    Table t({"stride", "hashed cycles", "unhashed cycles", "unhashed/hashed"},
            2);
    for (const i64 stride : {1, 64, 1024, 4096, 16384}) {
      const auto h = strided_run(true, stride);
      const auto u = strided_run(false, stride);
      t.row().add(stride).add(h).add(u).add(static_cast<double>(u) /
                                            static_cast<double>(h));
    }
    std::cout << "--- Stride sweep (4096 banks at p=8; unhashed power-of-two "
                 "strides land on few banks) ---\n"
              << t << '\n';
  }

  {
    Table t({"counter layout", "cycles"}, 2);
    t.row().add("one shared counter (hotspot)").add(counter_run(true));
    t.row().add("per-thread counters").add(counter_run(false));
    std::cout << "--- fetch-add hotspot (1024 threads x 64 increments, p=8) "
                 "---\n"
              << t
              << "\nExpected shape: the shared counter serializes at one "
                 "bank (>= 65536 cycles);\nper-thread counters spread across "
                 "banks and finish far sooner.\n";
  }
  return 0;
}

int main() {
  return archgraph::bench::run_main("ablation_hotspot", bench_main);
}
