// Host-side metrics for the execution tier — deliberately separate from the
// simulated-cycle observability stack (obs/trace, obs/prof): everything in
// here measures the *host* process (wall-clock latencies, cache hits, queue
// depths), never simulated machine state, and nothing in here may influence a
// simulation. The sweep executor and its input cache feed a MetricsRegistry;
// the CLIs and benches export it as OpenMetrics text (--metrics-out) or as a
// "host_metrics" JSON object.
//
// Three instrument kinds, all thread-safe after registration:
//   * Counter   — monotonic u64 (cells completed, cache hits);
//   * Gauge     — settable i64 (queue depth, worker count);
//   * Histogram — fixed-bucket latency distribution with a deterministic
//                 bucket layout chosen at registration, so two runs of the
//                 same binary always expose the same bucket edges (counts are
//                 deterministic under any --jobs; sums carry host timings and
//                 are not).
//
// Registration returns stable references (instruments are heap-held), so hot
// paths increment an atomic without touching the registry lock. Instrument
// names follow the OpenMetrics conventions: snake_case, unit-suffixed
// ("_seconds"), counters exposed with the "_total" sample suffix.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace archgraph::obs::telemetry {

class Counter {
 public:
  void add(u64 delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

class Gauge {
 public:
  void set(i64 v) { value_.store(v, std::memory_order_relaxed); }
  void add(i64 delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  i64 value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<i64> value_{0};
};

/// Fixed-bucket histogram. `bounds` are the inclusive upper edges, strictly
/// increasing; an observation lands in the first bucket with value <= bound,
/// or in the implicit +Inf overflow bucket past the last edge. Bucket counts
/// are stored per-bucket (non-cumulative) and exposed cumulatively in
/// OpenMetrics form, as the exposition format requires.
class Histogram {
 public:
  /// Throws std::logic_error when bounds are empty or not strictly
  /// increasing (a histogram without a deterministic layout is useless as a
  /// cross-run comparison key).
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i` alone (i == bounds().size() is the overflow
  /// bucket). Non-cumulative; see cumulative_counts().
  u64 bucket_count(usize i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  /// Counts in OpenMetrics le-form: entry i covers every observation <=
  /// bounds()[i], the final entry (le="+Inf") equals count().
  std::vector<u64> cumulative_counts() const;
  u64 count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of observed values. Host timings feed this, so it is the one
  /// non-deterministic field of an otherwise deterministic layout.
  double sum() const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<u64>> counts_;  // bounds_.size() + 1 (overflow)
  std::atomic<u64> count_{0};
  std::atomic<double> sum_{0.0};
};

/// The default layout for host latency histograms (seconds): doubling from
/// 1 µs while the edge stays <= 512 s (29 edges, the last ~268 s) — wide
/// enough for a one-cell smoke run and a full fig1 grid alike, and identical
/// in every build.
std::vector<double> default_latency_buckets_seconds();

/// A named collection of instruments. Registration (counter()/gauge()/
/// histogram()) is idempotent by name and thread-safe; re-registering an
/// existing name returns the existing instrument (a histogram re-registered
/// with different bounds throws — the layout is part of the contract).
/// Export order is registration order, so emitted documents are stable.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help);
  Gauge& gauge(std::string_view name, std::string_view help);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds);

  usize size() const;

  /// OpenMetrics text exposition: "# TYPE"/"# HELP" metadata per family,
  /// counter samples suffixed "_total", histograms as cumulative
  /// <name>_bucket{le="..."} samples plus _count/_sum, terminated by the
  /// mandatory "# EOF" line.
  std::string to_openmetrics() const;

  /// One JSON object mirroring the exposition ({"name": {"type": ...}}),
  /// members in registration order — the "host_metrics" splice for
  /// BENCH_*.json and archgraph_cli --json.
  std::string to_json() const;

 private:
  enum class Kind : u8 { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find_locked(std::string_view name);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Validates a metric/label name against the OpenMetrics charset
/// ([a-zA-Z_][a-zA-Z0-9_]*). Registration AG_CHECKs this, so an exporter can
/// never emit a family the format lint would reject.
bool is_valid_metric_name(std::string_view name);

}  // namespace archgraph::obs::telemetry
