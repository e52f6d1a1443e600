// Telemetry is observational: these tests pin the two properties the
// subsystem promises — the deterministic counters are identical under any
// --jobs value, and attaching telemetry changes no persisted result byte.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry/events.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace archgraph::sweep {
namespace {

namespace tel = obs::telemetry;

// 2 machines x 2 sizes = 4 cells over 2 distinct input keys (machine is not
// part of the input key), so the expected cache traffic is 2 misses + 2 hits.
constexpr char kSpec[] =
    "kernel=lr_walk machine=mta:procs={1,2} n={128,256} seed=7";

struct CounterSnapshot {
  u64 completed = 0;
  u64 failed = 0;
  u64 inputs = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 cell_hist_count = 0;
  u64 input_hist_count = 0;
  i64 queue_depth = -1;
  i64 plan_cells = 0;
};

CounterSnapshot run_and_snapshot(usize jobs) {
  tel::HostTelemetry telemetry;
  RunOptions options;
  options.jobs = jobs;
  options.telemetry = &telemetry;
  run_plan(expand(kSpec), options);

  // Re-registration is idempotent by name, so this reads the executor's own
  // instruments back out.
  auto& r = telemetry.registry;
  CounterSnapshot s;
  s.completed = r.counter("archgraph_sweep_cells_completed", "").value();
  s.failed = r.counter("archgraph_sweep_cells_failed", "").value();
  s.inputs = r.counter("archgraph_sweep_inputs_generated", "").value();
  s.hits = r.counter("archgraph_sweep_input_cache_hits", "").value();
  s.misses = r.counter("archgraph_sweep_input_cache_misses", "").value();
  s.cell_hist_count =
      r.histogram("archgraph_sweep_cell_host_seconds", "",
                  tel::default_latency_buckets_seconds())
          .count();
  s.input_hist_count =
      r.histogram("archgraph_sweep_input_build_seconds", "",
                  tel::default_latency_buckets_seconds())
          .count();
  s.queue_depth = r.gauge("archgraph_sweep_queue_depth", "").value();
  s.plan_cells = r.gauge("archgraph_sweep_plan_cells", "").value();
  return s;
}

TEST(SweepTelemetry, CountersMatchThePlanShape) {
  const CounterSnapshot s = run_and_snapshot(1);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.inputs, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 2u);  // acquires (4) minus distinct keys (2)
  EXPECT_EQ(s.cell_hist_count, 4u);
  EXPECT_EQ(s.input_hist_count, 2u);
  EXPECT_EQ(s.queue_depth, 0);  // drained
  EXPECT_EQ(s.plan_cells, 4);
}

TEST(SweepTelemetry, CountersAreIdenticalAcrossJobs) {
  const CounterSnapshot serial = run_and_snapshot(1);
  const CounterSnapshot parallel = run_and_snapshot(4);
  EXPECT_EQ(serial.completed, parallel.completed);
  EXPECT_EQ(serial.failed, parallel.failed);
  EXPECT_EQ(serial.inputs, parallel.inputs);
  EXPECT_EQ(serial.hits, parallel.hits);
  EXPECT_EQ(serial.misses, parallel.misses);
  EXPECT_EQ(serial.cell_hist_count, parallel.cell_hist_count);
  EXPECT_EQ(serial.input_hist_count, parallel.input_hist_count);
  EXPECT_EQ(serial.queue_depth, parallel.queue_depth);
  EXPECT_EQ(serial.plan_cells, parallel.plan_cells);
}

/// The persisted JSONL for a plan, streamed through on_cell exactly like the
/// archgraph_sweep CLI does.
std::string jsonl_for(const RunOptions& options) {
  std::ostringstream out;
  run_plan(expand(kSpec), options,
           [&](const CellResult& r, usize, usize) {
             out << record_json(to_record(r)) << '\n';
           });
  return out.str();
}

TEST(SweepTelemetry, PersistedRecordsAreByteIdenticalWithAndWithoutTelemetry) {
  RunOptions plain;
  const std::string baseline = jsonl_for(plain);

  tel::HostTelemetry telemetry;
  telemetry.events = std::make_unique<tel::EventLog>(
      testing::TempDir() + "telemetry_runner_events.jsonl");
  RunOptions instrumented;
  instrumented.jobs = 4;
  instrumented.telemetry = &telemetry;
  EXPECT_EQ(jsonl_for(instrumented), baseline);
}

TEST(SweepTelemetry, EventLogIsWellFormedAndOrdered) {
  const std::string path =
      testing::TempDir() + "telemetry_runner_eventlog.jsonl";
  {
    tel::HostTelemetry telemetry;
    telemetry.events = std::make_unique<tel::EventLog>(path);
    RunOptions options;
    options.jobs = 2;
    options.telemetry = &telemetry;
    run_plan(expand(kSpec), options);
    telemetry.events->flush();
  }

  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::vector<std::string> types;
  i64 last_ts = 0;
  usize started = 0, finished = 0, inputs = 0;
  std::string line;
  while (std::getline(in, line)) {
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::json_parse(line, &doc, &error)) << error << ": " << line;
    const obs::JsonValue* type = doc.find("event");
    ASSERT_NE(type, nullptr);
    types.push_back(type->as_string());
    const obs::JsonValue* ts = doc.find("ts_us");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->as_i64(), last_ts) << "timestamps must be non-decreasing";
    last_ts = ts->as_i64();
    if (types.back() == "cell_started") ++started;
    if (types.back() == "cell_finished") {
      ++finished;
      // The cell's simulated memory: whole pages, never zero.
      const obs::JsonValue* bytes = doc.find("sim_memory_bytes");
      ASSERT_NE(bytes, nullptr) << line;
      EXPECT_GT(bytes->as_i64(), 0) << line;
      EXPECT_EQ(bytes->as_i64() % 4096, 0) << line;
    }
    if (types.back() == "input_generated") ++inputs;
  }
  ASSERT_FALSE(types.empty());
  EXPECT_EQ(types.front(), "run_started");
  EXPECT_EQ(types.back(), "run_finished");
  EXPECT_EQ(started, 4u);
  EXPECT_EQ(finished, 4u);
  EXPECT_EQ(inputs, 2u);
}

TEST(SweepTelemetry, FailedCellFeedsTheFailureCounterAndEvent) {
  const std::string path =
      testing::TempDir() + "telemetry_runner_failure_events.jsonl";
  tel::HostTelemetry telemetry;
  telemetry.events = std::make_unique<tel::EventLog>(path);
  RunOptions options;
  options.telemetry = &telemetry;

  // Kernel names are validated up front (before workers start), so the way
  // to make a *worker* fail is a machine spec that only parses at run time.
  SweepPlan plan;
  SweepCell cell;
  cell.kernel = "lr_walk";
  cell.machine = "not_a_machine";
  cell.n = 64;
  plan.cells.push_back(cell);
  EXPECT_THROW(run_plan(plan, options), std::exception);
  telemetry.events->flush();

  EXPECT_EQ(
      telemetry.registry.counter("archgraph_sweep_cells_failed", "").value(),
      1u);

  std::ifstream in(path);
  ASSERT_TRUE(in);
  bool saw_failed = false;
  std::string line;
  while (std::getline(in, line)) {
    obs::JsonValue doc;
    ASSERT_TRUE(obs::json_parse(line, &doc, nullptr)) << line;
    const obs::JsonValue* type = doc.find("event");
    if (type != nullptr && type->as_string() == "cell_failed") {
      saw_failed = true;
      const obs::JsonValue* error = doc.find("error");
      ASSERT_NE(error, nullptr);
      EXPECT_FALSE(error->as_string().empty());
    }
  }
  EXPECT_TRUE(saw_failed);
}

}  // namespace
}  // namespace archgraph::sweep
