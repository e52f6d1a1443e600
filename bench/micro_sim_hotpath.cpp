// Host-native microbenchmarks of the simulator hot paths: EventQueue
// push/pop (same-cycle fast path, near-future bucket regime, far-future heap
// regime, region restarts), SimMemory read/write throughput, and — the
// headline numbers — whole-machine throughput on fig1/fig2-shaped cells for
// all three machine presets. These measure this machine, not the simulated
// hardware — they exist so the "make the simulator faster" optimizations are
// quantified and gated, not asserted. With ARCHGRAPH_BENCH_JSON=<dir> set the
// results land in <dir>/BENCH_host_sim.json (one record per benchmark,
// ops_per_sec is the headline number; for machine/* records one "op" is one
// simulated instruction, so ops_per_sec is host instructions/sec — compare
// two runs with tools/bench_diff). Event-queue and machine records also
// carry heap_pushes, the events that took the queue's overflow heap; machine
// records carry events (every event the machine handled) and fused (those it
// kept outside the queue: the SMP's dispatch slots), so events/ops is events
// per simulated instruction. They also carry threads (simulated threads
// spawned), frames (coroutine frames the host allocated for them; a kernel
// runs one frame per thread, so frames == threads) and frame_bytes (frame
// bytes per simulated thread: the host footprint of one resident thread's
// kernel state).
//
// Every series runs kRuns times, round-robin over the whole suite so a slow
// stretch of the host spreads over all series; `seconds` is the median run,
// next to seconds_min, seconds_max and runs.
//
// The synthetic machine/gpu/{compute,coalesced_load,scattered_load,
// fetch_add} series run one op kind on every resident lane of gpu:procs=4,
// so each warp-instruction is one convergent group: their ns_per_lane_op
// (host ns per lane operation, lane_ops of them) splits the GPU's issue
// cost by op kind, per lane.
//
// The fig2_p1 / fig2_p8 pairs run one Shiloach-Vishkin CC cell (same graph,
// same per-edge and per-vertex work) at 1 and at 8 processors: cc_sv_mta on
// the MTA and the GPU (8x the resident streams or lanes), cc_sv_smp on the
// default SMP (8x the processors, each with its own L1 and L2 tags). Their
// ns/instr ratio is each machine's host width cost.
#include <algorithm>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/gpu/gpu_machine.hpp"
#include "sim/memory.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"

namespace {

using namespace archgraph;

// Accumulated into by every benchmark and printed at the end, so the
// optimizer cannot delete the measured loops.
u64 g_sink = 0;

/// Runs of every series; the record keeps the median.
constexpr usize kRuns = 5;

struct Result {
  std::string name;
  u64 ops = 0;
  double seconds = 0.0;
  i64 heap_pushes = -1;  // -1: not an event-queue measurement
  i64 events = -1;       // -1: not a machine measurement
  i64 fused = -1;
  i64 threads = -1;
  i64 frames = -1;
  double frame_bytes = -1.0;  // per simulated thread
  i64 lane_ops = -1;  // -1: not a synthetic GPU lane series
  double seconds_min = 0.0;
  double seconds_max = 0.0;
  double ops_per_sec() const { return seconds > 0.0 ? ops / seconds : 0.0; }
  double ns_per_lane_op() const { return seconds * 1e9 / lane_ops; }
};

/// Same-cycle regime: ready/issue/complete chains push at the time of the
/// event being handled, so pushes bypass the heap entirely. A backlog of
/// far-future events (memory completions of blocked streams) sits in the
/// queue the whole time, as during a real simulation — a structure without
/// the fast path pays O(log backlog) for every same-cycle push.
Result bench_event_queue_same_cycle(u64 ops) {
  sim::EventQueue q;
  for (u64 i = 0; i < 4096; ++i) {
    q.push(1'000'000'000 + static_cast<sim::Cycle>(i), 9, i);
  }
  Timer timer;
  u64 done = 0;
  q.push(0, 1, 0);
  while (done < ops) {
    const sim::Event e = q.pop();
    g_sink += e.payload;
    ++done;
    // Each handled event schedules one successor at the same cycle, with an
    // occasional step to the next cycle so now_ advances like a real run.
    const sim::Cycle next = done % 64 == 0 ? e.time + 1 : e.time;
    q.push(next, 1, done);
  }
  return {"event_queue/same_cycle", ops, timer.seconds(),
          static_cast<i64>(q.heap_pushes())};
}

/// Heap regime: every push lands at a distinct future time (memory-latency
/// completions), so the binary heap does all the work.
Result bench_event_queue_heap(u64 ops) {
  sim::EventQueue q;
  Prng rng(0x5eed);
  // Steady state: keep ~256 events in flight, each at a pseudo-random
  // future time (like outstanding memory operations with varied latencies).
  sim::Cycle now = 0;
  for (u64 i = 0; i < 256; ++i) {
    q.push(now + 1 + static_cast<sim::Cycle>(rng.below(200)), 2, i);
  }
  Timer timer;
  for (u64 done = 0; done < ops; ++done) {
    const sim::Event e = q.pop();
    g_sink += e.payload;
    q.push(e.time + 1 + static_cast<sim::Cycle>(rng.below(200)), 2, done);
  }
  return {"event_queue/heap", ops, timer.seconds(),
          static_cast<i64>(q.heap_pushes())};
}

/// Region-restart regime, the way Shiloach-Vishkin CC drives a machine's
/// queue: one long region, then many shorter ones, each restarting simulated
/// time at 0 behind start_region(). Every stream's chain mixes same-cycle
/// steps, next-cycle issues and memory round trips, so all traffic belongs
/// on the FIFO and bucket levels; heap_pushes counts what leaked to the
/// overflow heap.
Result bench_event_queue_region_restart(u64 ops) {
  constexpr u64 kStreams = 1024;
  constexpr sim::Cycle kFork = 256;
  constexpr sim::Cycle kLatency = 100;
  sim::EventQueue q;
  Prng rng(0x7e57a7);
  Timer timer;
  u64 done = 0;
  for (u32 region = 0; done < ops; ++region) {
    // The first region issues 8x the events of each later one.
    u64 budget = region == 0 ? ops / 4 : ops / 32;
    q.start_region();
    for (u64 s = 0; s < kStreams; ++s) q.push(kFork, 1, s);
    while (!q.empty()) {
      const sim::Event e = q.pop();
      g_sink += e.payload;
      ++done;
      if (budget == 0) continue;  // region end: let the streams drain
      --budget;
      const u64 roll = rng.below(4);
      const sim::Cycle step = roll == 0 ? 0 : roll == 1 ? 1 : kLatency;
      q.push(e.time + step, 1, e.payload);
    }
  }
  return {"event_queue/region_restart", done, timer.seconds(),
          static_cast<i64>(q.heap_pushes())};
}

Result bench_memory_sequential(u64 words, u64 passes) {
  sim::SimMemory mem;
  const sim::Addr base = mem.alloc(static_cast<i64>(words));
  Timer timer;
  for (u64 p = 0; p < passes; ++p) {
    for (u64 i = 0; i < words; ++i) {
      mem.write(base + i, static_cast<i64>(i + p));
    }
    i64 sum = 0;
    for (u64 i = 0; i < words; ++i) {
      sum += mem.read(base + i);
    }
    g_sink += static_cast<u64>(sum);
  }
  return {"sim_memory/sequential_rw", 2 * words * passes, timer.seconds()};
}

Result bench_memory_random(u64 words, u64 passes) {
  sim::SimMemory mem;
  const sim::Addr base = mem.alloc(static_cast<i64>(words));
  // A fixed random permutation of the addresses — the paper's "Random"
  // layout effect, applied to the simulator's own accessor overhead.
  Prng rng(0xfeed);
  std::vector<sim::Addr> order(words);
  for (u64 i = 0; i < words; ++i) order[i] = base + i;
  rng.shuffle(std::span<sim::Addr>(order));
  Timer timer;
  for (u64 p = 0; p < passes; ++p) {
    for (const sim::Addr a : order) {
      mem.write(a, static_cast<i64>(a + p));
    }
    i64 sum = 0;
    for (const sim::Addr a : order) {
      sum += mem.read(a);
    }
    g_sink += static_cast<u64>(sum);
  }
  return {"sim_memory/random_rw", 2 * words * passes, timer.seconds()};
}

Result bench_memory_tag_bits(u64 words, u64 passes) {
  sim::SimMemory mem;
  const sim::Addr base = mem.alloc(static_cast<i64>(words));
  Timer timer;
  for (u64 p = 0; p < passes; ++p) {
    for (u64 i = 0; i < words; ++i) {
      mem.set_full(base + i, (i + p) % 2 == 0);
    }
    u64 full = 0;
    for (u64 i = 0; i < words; ++i) {
      full += mem.full(base + i) ? 1 : 0;
    }
    g_sink += full;
  }
  return {"sim_memory/tag_bits_rw", 2 * words * passes, timer.seconds()};
}

double per_thread(u64 bytes, u64 threads) {
  return threads > 0 ? static_cast<double>(bytes) / threads : 0.0;
}

/// Whole-machine throughput: run one fig1- or fig2-shaped sweep cell
/// repeatedly on a fresh machine each time (exactly what sweep::run_plan
/// does per cell) and report host simulated instructions/sec. This is the
/// number every ROADMAP scenario item is bounded by — the queue/memory
/// micros above are its ingredients.
Result bench_machine_cell(const std::string& label, const std::string& kernel,
                          const std::string& machine, sweep::Layout layout,
                          i64 n, i64 m, u64 reps) {
  sweep::SweepCell cell;
  cell.kernel = kernel;
  cell.machine = machine;
  cell.layout = layout;
  cell.n = n;
  cell.m = m;
  const sweep::KernelInfo& info = sweep::find_kernel(kernel);
  const sweep::KernelInput input = sweep::make_input(info, cell);
  u64 instructions = 0;
  u64 heap_pushes = 0;
  u64 events = 0;
  u64 fused = 0;
  u64 threads = 0;
  const u64 frames_before = sim::detail::frame_pool().allocations();
  const u64 bytes_before = sim::detail::frame_pool().bytes();
  Timer timer;
  for (u64 r = 0; r < reps; ++r) {
    const auto mach = sim::make_machine(machine);
    info.run(*mach, input, /*verify=*/false);
    g_sink += static_cast<u64>(mach->cycles());
    instructions += static_cast<u64>(mach->stats().instructions);
    heap_pushes += mach->event_heap_pushes();
    events += mach->events_pushed() + mach->events_fused();
    fused += mach->events_fused();
    threads += static_cast<u64>(mach->stats().threads);
  }
  const double seconds = timer.seconds();
  const u64 frames = sim::detail::frame_pool().allocations() - frames_before;
  Result r{"machine/" + label,         instructions,
           seconds,                    static_cast<i64>(heap_pushes),
           static_cast<i64>(events),   static_cast<i64>(fused),
           static_cast<i64>(threads),  static_cast<i64>(frames)};
  r.frame_bytes = per_thread(sim::detail::frame_pool().bytes() - bytes_before,
                             threads);
  return r;
}

/// Op kinds of the synthetic GPU lane series.
enum class LaneOp { kCompute, kCoalescedLoad, kScatteredLoad, kFetchAdd };

/// `rounds` ops of one kind on every resident lane of gpu:procs=4 (4096
/// lanes, so every warp is full and presents one kind: no divergence). The
/// load series read fresh words every round, so the scratchpad never hits:
/// coalesced lanes read consecutive words (one segment per 16 lanes),
/// scattered lanes read words `rounds` apart (one segment per lane at 16
/// rounds and up). Fetch-adds hit one word per lane and always serialize.
Result bench_gpu_lanes(const std::string& label, LaneOp op, i64 rounds,
                       u64 reps) {
  sim::GpuConfig config;
  config.processors = 4;
  const i64 lanes = static_cast<i64>(config.processors) *
                    config.warps_per_processor * config.warp_width;
  u64 instructions = 0;
  u64 heap_pushes = 0;
  u64 events = 0;
  u64 fused = 0;
  u64 threads = 0;
  const u64 frames_before = sim::detail::frame_pool().allocations();
  const u64 bytes_before = sim::detail::frame_pool().bytes();
  Timer timer;
  for (u64 r = 0; r < reps; ++r) {
    sim::GpuMachine m{config};
    const sim::Addr base = m.memory().alloc(lanes * rounds);
    for (i64 lane = 0; lane < lanes; ++lane) {
      m.spawn(
          [](sim::Ctx ctx, LaneOp op, sim::Addr base, i64 lane, i64 lanes,
             i64 rounds) -> sim::SimThread {
            for (i64 i = 0; i < rounds; ++i) {
              switch (op) {
                case LaneOp::kCompute:
                  co_await ctx.compute(1);
                  break;
                case LaneOp::kCoalescedLoad:
                  co_await ctx.load(base + static_cast<sim::Addr>(
                                               i * lanes + lane));
                  break;
                case LaneOp::kScatteredLoad:
                  co_await ctx.load(base + static_cast<sim::Addr>(
                                               lane * rounds + i));
                  break;
                case LaneOp::kFetchAdd:
                  co_await ctx.fetch_add(
                      base + static_cast<sim::Addr>(lane), 1);
                  break;
              }
            }
          },
          op, base, lane, lanes, rounds);
    }
    m.run_region();
    g_sink += static_cast<u64>(m.cycles());
    instructions += static_cast<u64>(m.stats().instructions);
    heap_pushes += m.event_heap_pushes();
    events += m.events_pushed() + m.events_fused();
    fused += m.events_fused();
    threads += static_cast<u64>(m.stats().threads);
  }
  const double seconds = timer.seconds();
  const u64 frames = sim::detail::frame_pool().allocations() - frames_before;
  Result r{"machine/gpu/" + label,     instructions,
           seconds,                    static_cast<i64>(heap_pushes),
           static_cast<i64>(events),   static_cast<i64>(fused),
           static_cast<i64>(threads),  static_cast<i64>(frames)};
  r.frame_bytes = per_thread(sim::detail::frame_pool().bytes() - bytes_before,
                             threads);
  r.lane_ops = static_cast<i64>(reps) * lanes * rounds;
  return r;
}

}  // namespace

static int bench_main() {
  const bench::Scale scale = bench::scale_from_env();
  u64 queue_ops = 1u << 22;
  u64 words = 1u << 18;
  u64 passes = 16;
  u64 cell_reps = 8;
  i64 cell_n = 1 << 14;
  if (scale == bench::Scale::kQuick) {
    queue_ops = 1u << 18;
    words = 1u << 14;
    passes = 4;
    cell_reps = 2;
    cell_n = 1 << 12;
  } else if (scale == bench::Scale::kFull) {
    queue_ops = 1u << 24;
    words = 1u << 20;
    passes = 32;
    cell_reps = 16;
    cell_n = 1 << 16;
  }

  bench::print_header(
      "HOST — simulator hot-path microbenchmarks",
      "host wall-clock throughput of EventQueue and SimMemory (the structures "
      "every\nsimulated cycle passes through) — not a property of the modeled "
      "machines");

  // Each series is a closure, so the suite can run round-robin kRuns times.
  std::vector<std::function<Result()>> series;
  series.push_back([=] { return bench_event_queue_same_cycle(queue_ops); });
  series.push_back([=] { return bench_event_queue_heap(queue_ops); });
  series.push_back(
      [=] { return bench_event_queue_region_restart(queue_ops); });
  series.push_back([=] { return bench_memory_sequential(words, passes); });
  series.push_back([=] { return bench_memory_random(words, passes); });
  series.push_back([=] { return bench_memory_tag_bits(words, passes); });

  // Whole-machine instructions/sec, fig1- and fig2-shaped, one pair per
  // preset. fig1 shape: list ranking on a random list (lr_walk for the
  // fine-grain machines, lr_hj for the SMP). fig2 shape: Shiloach-Vishkin CC
  // on a random graph with m = 8n (cc_sv_smp on the SMP).
  const i64 cc_n = cell_n / 4;
  const auto layout = sweep::Layout::kRandom;
  auto cell = [&](std::string label, std::string kernel, std::string machine,
                  i64 n, i64 m, u64 reps) {
    series.push_back([=] {
      return bench_machine_cell(label, kernel, machine, layout, n, m, reps);
    });
  };
  cell("mta/fig1", "lr_walk", "mta:procs=4", cell_n, 0, cell_reps);
  cell("mta/fig2", "cc_sv_mta", "mta:procs=4", cc_n, 8 * cc_n, cell_reps);
  cell("smp/fig1", "lr_hj", "smp:procs=4,l2_kb=512", cell_n, 0, cell_reps);
  // smp/fig1's list barely leaves the simulated L2; a 16x longer one makes
  // nearly every pointer chase a line fill, so the miss and coherence paths
  // dominate. Fewer reps: each one is 16x the work.
  cell("smp/fig1_l2miss", "lr_hj", "smp:procs=4,l2_kb=512", 16 * cell_n, 0,
       std::max<u64>(cell_reps / 4, 1));
  cell("smp/fig2", "cc_sv_smp", "smp:procs=4,l2_kb=512", cc_n, 8 * cc_n,
       cell_reps);
  cell("gpu/fig1", "lr_walk", "gpu:procs=4", cell_n, 0, cell_reps);
  cell("gpu/fig2", "cc_sv_mta", "gpu:procs=4", cc_n, 8 * cc_n, cell_reps);

  // Width pairs: one CC cell at the densest fig2 shape (m = 20n, so
  // the graft phase has enough 64-edge chunks to fill 8 processors' lanes)
  // at procs=1 and procs=8. The per-edge and per-vertex work is identical;
  // only the number of workers, and so of claims, grows with width.
  const i64 width_n = cell_n / 2;
  const u64 width_reps = std::max<u64>(cell_reps / 4, 1);
  for (const std::string arch : {"mta", "gpu", "smp"}) {
    const char* kernel = arch == "smp" ? "cc_sv_smp" : "cc_sv_mta";
    for (const int procs : {1, 8}) {
      cell(arch + "/fig2_p" + std::to_string(procs), kernel,
           arch + ":procs=" + std::to_string(procs), width_n, 20 * width_n,
           width_reps);
    }
  }

  // Synthetic per-lane series: ns per lane-op of each op kind.
  const i64 lane_rounds = scale == bench::Scale::kQuick ? 16 : 64;
  for (const auto& [label, op] :
       {std::pair{"compute", LaneOp::kCompute},
        std::pair{"coalesced_load", LaneOp::kCoalescedLoad},
        std::pair{"scattered_load", LaneOp::kScatteredLoad},
        std::pair{"fetch_add", LaneOp::kFetchAdd}}) {
    series.push_back([=] {
      return bench_gpu_lanes(label, op, lane_rounds, cell_reps);
    });
  }

  std::vector<std::vector<Result>> runs(series.size());
  for (usize run = 0; run < kRuns; ++run) {
    for (usize i = 0; i < series.size(); ++i) {
      runs[i].push_back(series[i]());
    }
  }
  std::vector<Result> results;
  for (std::vector<Result>& r : runs) {
    std::sort(r.begin(), r.end(), [](const Result& a, const Result& b) {
      return a.seconds < b.seconds;
    });
    Result median = r[r.size() / 2];
    median.seconds_min = r.front().seconds;
    median.seconds_max = r.back().seconds;
    results.push_back(median);
  }

  Table table({"benchmark", "ops", "seconds", "min", "max", "Mops/sec",
               "heap pushes", "events", "fused", "threads", "frames",
               "frame B", "ns/lane-op"},
              3);
  bench::BenchJson bj("host_sim");
  for (const Result& r : results) {
    table.row()
        .add(r.name)
        .add(static_cast<i64>(r.ops))
        .add(r.seconds)
        .add(r.seconds_min)
        .add(r.seconds_max)
        .add(r.ops_per_sec() / 1e6)
        .add(r.heap_pushes >= 0 ? std::to_string(r.heap_pushes) : "-")
        .add(r.events >= 0 ? std::to_string(r.events) : "-")
        .add(r.fused >= 0 ? std::to_string(r.fused) : "-")
        .add(r.threads >= 0 ? std::to_string(r.threads) : "-")
        .add(r.frames >= 0 ? std::to_string(r.frames) : "-");
    if (r.frame_bytes >= 0) {
      table.add(r.frame_bytes);
    } else {
      table.add("-");
    }
    if (r.lane_ops >= 0) {
      table.add(r.ns_per_lane_op());
    } else {
      table.add("-");
    }
    bj.record([&](obs::JsonWriter& w) {
      w.field("benchmark", r.name)
          .field("ops", static_cast<i64>(r.ops))
          .field("seconds", r.seconds)
          .field("seconds_min", r.seconds_min)
          .field("seconds_max", r.seconds_max)
          .field("runs", static_cast<i64>(kRuns))
          .field("ops_per_sec", r.ops_per_sec());
      if (r.heap_pushes >= 0) w.field("heap_pushes", r.heap_pushes);
      if (r.events >= 0) {
        w.field("events", r.events)
            .field("fused", r.fused)
            .field("threads", r.threads)
            .field("frames", r.frames)
            .field("frame_bytes", r.frame_bytes);
      }
      if (r.lane_ops >= 0) {
        w.field("lane_ops", r.lane_ops)
            .field("ns_per_lane_op", r.ns_per_lane_op());
      }
    });
  }
  std::cout << table;
  bench::maybe_write_csv(table, "host_sim");
  bj.write();
  return g_sink == 0xdeadbeef ? 1 : 0;  // keep g_sink observable
}

int main() {
  return archgraph::bench::run_main("micro_sim_hotpath", bench_main);
}
