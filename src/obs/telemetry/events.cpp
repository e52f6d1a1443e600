#include "obs/telemetry/events.hpp"

#include "common/check.hpp"

namespace archgraph::obs::telemetry {

EventLog::EventLog(const std::string& path)
    : path_(path), out_(path), start_(std::chrono::steady_clock::now()) {
  AG_CHECK(out_.good(), "cannot write events file " + path);
}

EventLog::~EventLog() { out_.flush(); }

i64 EventLog::elapsed_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void EventLog::emit(std::string_view name,
                    const std::function<void(JsonWriter&)>& fill) {
  std::lock_guard lock(mutex_);
  JsonWriter w;
  w.begin_object().field("ts_us", elapsed_us()).field("event", name);
  if (fill) fill(w);
  w.end_object();
  // One whole flushed line per event, like the JSONL records: a run killed
  // mid-campaign (SIGPIPE, SIGKILL) keeps every event emitted before it.
  out_ << w.str() << '\n' << std::flush;
  ++events_;
}

bool EventLog::flush() {
  std::lock_guard lock(mutex_);
  out_.flush();
  return out_.good();
}

}  // namespace archgraph::obs::telemetry
