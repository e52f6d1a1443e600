#include "obs/telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/telemetry/progress.hpp"

namespace archgraph::obs::telemetry {
namespace {

// ------------------------------------------------------------- instruments

TEST(Counter, AccumulatesMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Histogram, ObservationLandsInFirstBucketAtOrAboveValue) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1.0
  h.observe(1.0);  // exactly on the edge: inclusive upper bound
  h.observe(1.5);  // <= 2.0
  h.observe(4.0);  // edge of the last finite bucket
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 0u);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0);
}

TEST(Histogram, PastLastEdgeGoesToOverflow) {
  Histogram h({1.0, 2.0});
  h.observe(2.0000001);
  h.observe(1e9);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, CumulativeCountsEndAtTotal) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);
  const std::vector<u64> cum = h.cumulative_counts();
  ASSERT_EQ(cum.size(), 4u);  // three finite edges + "+Inf"
  EXPECT_EQ(cum[0], 1u);
  EXPECT_EQ(cum[1], 1u);
  EXPECT_EQ(cum[2], 2u);
  EXPECT_EQ(cum[3], 3u);
  for (usize i = 1; i < cum.size(); ++i) {
    EXPECT_GE(cum[i], cum[i - 1]) << "cumulative counts must be monotone";
  }
}

TEST(Histogram, RejectsBadBucketLayouts) {
  EXPECT_THROW(Histogram({}), std::logic_error);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
}

TEST(Histogram, DefaultLatencyBucketsAreDeterministic) {
  const std::vector<double> a = default_latency_buckets_seconds();
  const std::vector<double> b = default_latency_buckets_seconds();
  EXPECT_EQ(a, b);
  // Doubling from 1e-6 while <= 512: 29 edges, last one 1e-6 * 2^28.
  ASSERT_EQ(a.size(), 29u);
  EXPECT_DOUBLE_EQ(a.front(), 1e-6);
  EXPECT_DOUBLE_EQ(a.back(), 1e-6 * 268435456.0);
  for (usize i = 1; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], a[i - 1] * 2.0);
  }
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, RegistrationIsIdempotentByName) {
  MetricsRegistry r;
  Counter& a = r.counter("archgraph_test_total_things", "help");
  Counter& b = r.counter("archgraph_test_total_things", "help");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(r.size(), 1u);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistry, HistogramReRegisteredWithOtherBoundsThrows) {
  MetricsRegistry r;
  r.histogram("archgraph_test_seconds", "help", {1.0, 2.0});
  EXPECT_NO_THROW(r.histogram("archgraph_test_seconds", "help", {1.0, 2.0}));
  EXPECT_THROW(r.histogram("archgraph_test_seconds", "help", {1.0, 4.0}),
               std::logic_error);
}

TEST(MetricsRegistry, RejectsInvalidNames) {
  MetricsRegistry r;
  EXPECT_THROW(r.counter("9starts_with_digit", "help"), std::logic_error);
  EXPECT_THROW(r.counter("has-dash", "help"), std::logic_error);
  EXPECT_THROW(r.counter("", "help"), std::logic_error);
}

TEST(MetricsRegistry, ValidMetricNameCharset) {
  EXPECT_TRUE(is_valid_metric_name("archgraph_sweep_cells_completed"));
  EXPECT_TRUE(is_valid_metric_name("_underscore_first"));
  EXPECT_FALSE(is_valid_metric_name("1leading_digit"));
  EXPECT_FALSE(is_valid_metric_name("with space"));
  EXPECT_FALSE(is_valid_metric_name(""));
}

TEST(MetricsRegistry, OpenMetricsExposition) {
  MetricsRegistry r;
  r.counter("archgraph_test_cells", "Cells done").add(5);
  r.gauge("archgraph_test_depth", "Queue depth").set(-2);
  Histogram& h =
      r.histogram("archgraph_test_seconds", "Latency", {0.5, 1.0});
  h.observe(0.25);
  h.observe(3.0);
  const std::string text = r.to_openmetrics();

  // Counters expose the _total sample suffix; gauges don't.
  EXPECT_NE(text.find("# TYPE archgraph_test_cells counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP archgraph_test_cells Cells done\n"),
            std::string::npos);
  EXPECT_NE(text.find("archgraph_test_cells_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("archgraph_test_depth -2\n"), std::string::npos);
  // Histogram: cumulative buckets, the mandatory +Inf edge, _count/_sum.
  EXPECT_NE(text.find("archgraph_test_seconds_bucket{le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("archgraph_test_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("archgraph_test_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("archgraph_test_seconds_count 2\n"), std::string::npos);
  // The exposition must end with the EOF marker line.
  const std::string tail = "# EOF\n";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
}

TEST(MetricsRegistry, JsonFormIsValidAndOrdered) {
  MetricsRegistry r;
  r.counter("archgraph_test_b", "second registered").add(1);
  r.counter("archgraph_test_a", "first by name, second in export");
  const std::string json = r.to_json();
  std::string error;
  JsonValue doc;
  ASSERT_TRUE(json_parse(json, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  const JsonValue* b = doc.find("archgraph_test_b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->find("type")->as_string(), "counter");
  EXPECT_EQ(b->find("value")->as_i64(), 1);
  // Registration order, not lexicographic.
  EXPECT_LT(json.find("archgraph_test_b"), json.find("archgraph_test_a"));
}

// --------------------------------------------------------------- event log

TEST(EventLog, WritesOneValidJsonLinePerEvent) {
  const std::string path = testing::TempDir() + "/archgraph_events_test.jsonl";
  {
    EventLog log(path);
    log.emit("run_started", [](JsonWriter& w) { w.field("cells", 3); });
    log.emit("cell_finished");
    EXPECT_EQ(log.events(), 2u);
    EXPECT_TRUE(log.flush());
  }
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::string line;
  i64 last_ts = -1;
  usize lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_parse(line, &doc, &error)) << error;
    const JsonValue* ts = doc.find("ts_us");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->as_i64(), last_ts) << "timestamps must be non-decreasing";
    last_ts = ts->as_i64();
    ASSERT_NE(doc.find("event"), nullptr);
  }
  EXPECT_EQ(lines, 2u);
}

TEST(EventLog, EachEventIsOnDiskAsSoonAsItIsEmitted) {
  // A process killed mid-campaign (SIGPIPE from a closed stdout, SIGKILL)
  // never reaches flush() or the destructor; every emitted line must
  // already be in the file.
  const std::string path =
      testing::TempDir() + "/archgraph_events_unflushed.jsonl";
  EventLog log(path);
  for (i64 cell = 0; cell < 3; ++cell) {
    log.emit("cell_finished", [&](JsonWriter& w) { w.field("cell", cell); });
    std::ifstream in(path);
    std::string line;
    i64 lines = 0;
    while (std::getline(in, line)) {
      JsonValue doc;
      std::string error;
      ASSERT_TRUE(json_parse(line, &doc, &error)) << error;
      EXPECT_EQ(doc.find("cell")->as_i64(), lines);
      ++lines;
    }
    EXPECT_EQ(lines, cell + 1);
  }
}

TEST(EventLog, ThrowsWhenPathCannotBeCreated) {
  EXPECT_THROW(EventLog("/nonexistent-dir-archgraph/events.jsonl"),
               std::logic_error);
}

// ------------------------------------------------------------------- progress

TEST(Progress, EtaIsUnknownBeforeFirstCompletion) {
  EXPECT_DOUBLE_EQ(eta_seconds(0, 10, 5.0), -1.0);
}

TEST(Progress, EtaIsZeroWhenNothingRemains) {
  EXPECT_DOUBLE_EQ(eta_seconds(10, 10, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(eta_seconds(0, 0, 0.0), 0.0);  // the zero-cell plan
  EXPECT_DOUBLE_EQ(eta_seconds(1, 1, 0.25), 0.0);  // the single-cell plan
}

TEST(Progress, EtaExtrapolatesTheObservedRate) {
  // 4 cells in 2s -> 0.5 s/cell -> 6 remaining take 3s.
  EXPECT_DOUBLE_EQ(eta_seconds(4, 10, 2.0), 3.0);
}

TEST(Progress, FormatDuration) {
  EXPECT_EQ(format_duration(0.42), "0.4s");
  EXPECT_EQ(format_duration(42.0), "42s");
  EXPECT_EQ(format_duration(222.0), "3m42s");
  EXPECT_EQ(format_duration(3720.0), "1h2m");
  EXPECT_EQ(format_duration(-1.0), "?");
}

TEST(Progress, RenderShowsDoneTotalRateAndEta) {
  const std::string line = ProgressReporter::render(12, 48, 3.5, "some/run");
  EXPECT_NE(line.find("[12/48]"), std::string::npos);
  EXPECT_NE(line.find("25%"), std::string::npos);
  EXPECT_NE(line.find("cells/sec"), std::string::npos);
  EXPECT_NE(line.find("eta"), std::string::npos);
  EXPECT_NE(line.find("some/run"), std::string::npos);
}

TEST(Progress, PlainModeEmitsNewlineLinesWithoutAnsiEscapes) {
  std::ostringstream out;
  ProgressOptions options;
  options.plain_interval_s = 0.0;  // no rate limit: every advance paints
  {
    ProgressReporter reporter(out, 2, /*is_tty=*/false, options);
    reporter.advance("cell-a", 1.0);
    reporter.advance("cell-b", 2.0);
    reporter.finish();
  }
  const std::string text = out.str();
  EXPECT_EQ(text.find('\x1b'), std::string::npos) << "no ANSI escapes off-TTY";
  EXPECT_EQ(text.find('\r'), std::string::npos) << "no carriage returns off-TTY";
  EXPECT_NE(text.find("[1/2]"), std::string::npos);
  EXPECT_NE(text.find("[2/2]"), std::string::npos);
}

TEST(Progress, PlainModeRateLimitStillPaintsFinalState) {
  std::ostringstream out;
  ProgressOptions options;
  options.plain_interval_s = 3600.0;  // suppress every mid-run line
  {
    ProgressReporter reporter(out, 3, /*is_tty=*/false, options);
    reporter.advance("a", 0.001);
    reporter.advance("b", 0.002);
    reporter.advance("c", 0.003);
    reporter.finish();
  }
  EXPECT_NE(out.str().find("[3/3]"), std::string::npos)
      << "the final state must be rendered even when rate-limited";
}

TEST(Progress, TtyModeRedrawsInPlace) {
  std::ostringstream out;
  ProgressOptions options;
  options.tty_interval_s = 0.0;
  {
    ProgressReporter reporter(out, 2, /*is_tty=*/true, options);
    reporter.advance("a", 1.0);
    reporter.advance("b", 2.0);
    reporter.finish();
  }
  EXPECT_NE(out.str().find('\r'), std::string::npos);
}

TEST(Progress, FinishIsIdempotent) {
  std::ostringstream out;
  ProgressReporter reporter(out, 1, /*is_tty=*/false);
  reporter.advance("a", 0.5);
  reporter.finish();
  const std::string after_first = out.str();
  reporter.finish();
  EXPECT_EQ(out.str(), after_first);
}

}  // namespace
}  // namespace archgraph::obs::telemetry
