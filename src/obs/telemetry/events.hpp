// Structured host-event log: one JSON object per line, each stamped with a
// monotonic host timestamp (microseconds since the log opened, so event
// files are self-contained and wall-clock skew cannot reorder them). The
// sweep executor emits run_started / cell_started / cell_finished /
// cell_failed / input_generated / run_finished through here when
// `archgraph_sweep run --events-out FILE` is given.
//
// Events are a log, not the result store: lines appear in completion order
// (workers finish cells out of plan order), timestamps are host wall-clock,
// and nothing downstream gates on the file. The sweep JSONL store stays
// byte-identical with the log on or off — that invariant is what makes this
// layer safe to leave enabled everywhere.
#pragma once

#include <chrono>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace archgraph::obs::telemetry {

class EventLog {
 public:
  /// Opens `path` for writing; throws when the file cannot be created. The
  /// clock starts here.
  explicit EventLog(const std::string& path);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Emits one event line: {"ts_us": <monotonic>, "event": "<name>", ...}.
  /// `fill` (optional) appends the event's own fields to the already-open
  /// object. The line is flushed before emit() returns, so a process killed
  /// afterwards still leaves it in the file. Thread-safe; concurrent
  /// emitters serialize on one mutex, so lines are never torn and
  /// timestamps are non-decreasing in file order.
  void emit(std::string_view name,
            const std::function<void(JsonWriter&)>& fill = {});

  /// Lines emitted so far.
  u64 events() const { return events_; }

  /// Microseconds since construction (the clock every event is stamped
  /// with). Monotonic: std::chrono::steady_clock.
  i64 elapsed_us() const;

  /// Flushes and reports stream health (false after a write error — e.g. a
  /// full disk — with the path in the message the CLI prints).
  bool flush();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mutex_;
  std::chrono::steady_clock::time_point start_;
  u64 events_ = 0;
};

}  // namespace archgraph::obs::telemetry
