#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/prof/prof.hpp"
#include "sim/machine_spec.hpp"

namespace archgraph::sweep {

namespace {

/// The well-known instruments of one run_plan() call, resolved once at plan
/// start so hot paths touch atomics, never the registry lock. All pointers
/// null when the run has no telemetry — producers test the one they need.
struct PlanInstruments {
  obs::telemetry::Counter* cells_completed = nullptr;
  obs::telemetry::Counter* cells_failed = nullptr;
  obs::telemetry::Counter* inputs_generated = nullptr;
  obs::telemetry::Counter* cache_hits = nullptr;
  obs::telemetry::Counter* cache_misses = nullptr;
  obs::telemetry::Gauge* queue_depth = nullptr;
  obs::telemetry::Histogram* cell_seconds = nullptr;
  obs::telemetry::Histogram* input_seconds = nullptr;
  obs::telemetry::EventLog* events = nullptr;

  static PlanInstruments resolve(obs::telemetry::HostTelemetry* t) {
    PlanInstruments inst;
    if (t == nullptr) return inst;
    auto& r = t->registry;
    inst.cells_completed = &r.counter("archgraph_sweep_cells_completed",
                                      "Sweep cells finished successfully");
    inst.cells_failed =
        &r.counter("archgraph_sweep_cells_failed", "Sweep cells that threw");
    inst.inputs_generated = &r.counter("archgraph_sweep_inputs_generated",
                                       "Distinct kernel inputs built");
    inst.cache_hits = &r.counter("archgraph_sweep_input_cache_hits",
                                 "Input-cache acquires served by reuse");
    inst.cache_misses = &r.counter("archgraph_sweep_input_cache_misses",
                                   "Input-cache acquires that had to build");
    inst.queue_depth = &r.gauge("archgraph_sweep_queue_depth",
                                "Plan cells not yet claimed by a worker");
    inst.cell_seconds = &r.histogram(
        "archgraph_sweep_cell_host_seconds",
        "Per-cell host wall-clock (simulate + verify)",
        obs::telemetry::default_latency_buckets_seconds());
    inst.input_seconds = &r.histogram(
        "archgraph_sweep_input_build_seconds",
        "Per-input host generation time",
        obs::telemetry::default_latency_buckets_seconds());
    inst.events = t->events.get();
    return inst;
  }
};

/// What the generated input depends on — cells agreeing on this key can
/// share one KernelInput.
std::string input_key(const KernelInfo& kernel, const SweepCell& cell) {
  std::string key = kernel.input == InputKind::kList ? "list" : "graph";
  key += '/';
  key += layout_name(cell.layout);
  key += "/n=" + std::to_string(cell.n);
  key += "/m=" + std::to_string(resolved_m(kernel, cell));
  key += "/seed=" + std::to_string(resolved_seed(kernel, cell));
  return key;
}

/// Shared immutable input store for one run_plan() call. Each distinct key is
/// generated exactly once — the first cell to ask builds it while concurrent
/// askers wait on the entry's future — and freed when its last cell releases
/// it, so peak memory is bounded by the inputs in flight, not the plan size.
class InputCache {
 public:
  /// `uses[key]` = number of cells in the plan that will acquire `key`.
  /// Hit/miss counts are deterministic under any jobs value: every distinct
  /// key misses exactly once (the owner) and entries outlive their last use,
  /// so hits == acquires − distinct keys.
  InputCache(std::unordered_map<std::string, usize> uses,
             const PlanInstruments& inst)
      : uses_(std::move(uses)), inst_(inst) {}

  u64 generated() const { return generated_.load(); }

  std::shared_ptr<const KernelInput> acquire(const std::string& key,
                                             const KernelInfo& kernel,
                                             const SweepCell& cell) {
    std::shared_future<std::shared_ptr<const KernelInput>> ready;
    std::promise<std::shared_ptr<const KernelInput>> mine;
    bool owner = false;
    {
      std::lock_guard lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        ready = it->second;
      } else {
        owner = true;
        ready = mine.get_future().share();
        entries_.emplace(key, ready);
      }
    }
    if (!owner) {
      if (inst_.cache_hits) inst_.cache_hits->add(1);
      return ready.get();  // blocks until the owner finishes (or throws)
    }
    if (inst_.cache_misses) inst_.cache_misses->add(1);
    try {
      Timer timer;
      auto input = std::make_shared<const KernelInput>(make_input(kernel, cell));
      const double seconds = timer.seconds();
      generated_.fetch_add(1);
      if (inst_.inputs_generated) inst_.inputs_generated->add(1);
      if (inst_.input_seconds) inst_.input_seconds->observe(seconds);
      if (inst_.events) {
        inst_.events->emit("input_generated", [&](obs::JsonWriter& w) {
          w.field("key", key).field("seconds", seconds);
        });
      }
      mine.set_value(input);
      return input;
    } catch (...) {
      mine.set_exception(std::current_exception());
      throw;
    }
  }

  void release(const std::string& key) {
    std::lock_guard lock(mutex_);
    const auto use = uses_.find(key);
    if (use == uses_.end() || --use->second > 0) return;
    uses_.erase(use);
    entries_.erase(key);
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const KernelInput>>>
      entries_;
  std::unordered_map<std::string, usize> uses_;
  PlanInstruments inst_;
  std::atomic<u64> generated_{0};
};

/// Run IDs contain '/' and ':' (kernel/machine-spec/axes); map everything
/// outside [A-Za-z0-9._-] to '_' and append an FNV-1a hash of the original
/// ID so distinct IDs that sanitize alike (e.g. "a/b" vs "a:b") still get
/// distinct files under --profile-dir.
std::string filename_safe(const std::string& id) {
  u64 h = 14695981039346656037ull;
  for (const char c : id) {
    h = (h ^ static_cast<u8>(c)) * 1099511628211ull;
  }
  std::string out = id;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  out += '-';
  constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(h >> shift) & 0xf];
  }
  return out;
}

CellResult run_cell_with_input(const SweepCell& cell, const KernelInfo& kernel,
                               const KernelInput& input,
                               const RunOptions& options) {
  const std::unique_ptr<sim::Machine> machine = sim::make_machine(cell.machine);
  CellResult result;
  result.cell = cell;
  const bool profiling = options.profile || !options.profile_dir.empty();
  const std::string arch(
      sim::arch_name(sim::parse_machine_spec(cell.machine).arch));

  std::optional<obs::TraceSession> session;
  std::optional<obs::TraceSession::Install> install;
  // A per-cell trace file needs region spans even when the caller did not
  // ask for them in the CellResult, so --profile-dir implies a session.
  if (options.trace || !options.profile_dir.empty()) {
    session.emplace("sweep/" + cell.kernel);
    install.emplace(*session);
    session->attach(*machine, arch);
  }
  std::optional<obs::prof::ProfSession> prof;
  std::optional<obs::prof::ProfSession::Install> prof_install;
  if (profiling) {
    prof.emplace(options.profile_interval > 0 ? options.profile_interval
                                              : sim::Cycle{1024});
    prof_install.emplace(*prof);
    prof->attach(*machine, arch);
  }
  {
    // RegionScope (not Span): if the kernel throws, the unwind force-closes
    // any auto-opened region/phase spans so the session's thread_local slot
    // is clean for the worker's next cell.
    obs::RegionScope scope(session ? &*session : nullptr,
                           "cell/" + cell.run_id());
    const KernelRun run = kernel.run(*machine, input, options.verify);
    result.iterations = run.iterations;
    result.verified = run.verified;
  }
  if (prof) {
    prof->detach();
    result.profile_json = prof->profile_json();
    if (!options.profile_dir.empty()) {
      const std::string path = options.profile_dir + "/" +
                               filename_safe(cell.run_id()) + ".trace.json";
      AG_CHECK(prof->write_chrome_trace(path, session ? &*session : nullptr),
               "cannot write profile trace " + path);
    }
  }
  if (session) {
    session->detach();
    if (options.trace) result.spans = session->spans();
  }
  result.meas = core::snapshot(*machine);
  result.sim_memory_bytes =
      static_cast<i64>(machine->memory().mapped_bytes());
  return result;
}

/// Runs worker(0) on the calling thread and worker(1) .. worker(jobs - 1) on
/// threads of their own, joins them all, then rethrows the first exception
/// any of them threw. jobs == 1 starts no thread.
template <typename Worker>
void run_workers(usize jobs, const Worker& worker) {
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto guarded = [&](usize id) {
    try {
      worker(id);
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> threads;
    threads.reserve(jobs - 1);
    for (usize id = 1; id < jobs; ++id) threads.emplace_back(guarded, id);
    guarded(0);
  }  // each jthread joins as it goes out of scope
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

usize auto_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<usize>(hw, 1, 64);
}

CellResult run_cell(const SweepCell& cell, const RunOptions& options) {
  const KernelInfo& kernel = find_kernel(cell.kernel);
  const KernelInput input = make_input(kernel, cell);
  return run_cell_with_input(cell, kernel, input, options);
}

PlanRun run_plan(
    const SweepPlan& plan, const RunOptions& options,
    const std::function<void(const CellResult&, usize index, usize total)>&
        on_cell) {
  const usize total = plan.cells.size();
  PlanRun out;
  out.cells.resize(total);

  // Resolve kernels and input keys up front (also validates every kernel
  // name before any simulation starts), and count uses per key so the cache
  // can free an input the moment its last cell completes.
  std::vector<const KernelInfo*> kernels(total);
  std::vector<std::string> keys(total);
  std::unordered_map<std::string, usize> uses;
  for (usize i = 0; i < total; ++i) {
    kernels[i] = &find_kernel(plan.cells[i].kernel);
    keys[i] = input_key(*kernels[i], plan.cells[i]);
    ++uses[keys[i]];
  }

  usize jobs = options.jobs == 0 ? auto_jobs() : options.jobs;
  jobs = std::clamp<usize>(jobs, 1, std::max<usize>(total, 1));
  out.jobs = jobs;

  if (!options.profile_dir.empty()) {
    std::filesystem::create_directories(options.profile_dir);
  }

  const PlanInstruments inst = PlanInstruments::resolve(options.telemetry);
  if (options.telemetry) {
    auto& r = options.telemetry->registry;
    r.gauge("archgraph_sweep_jobs", "Resolved host worker count")
        .set(static_cast<i64>(jobs));
    r.gauge("archgraph_sweep_plan_cells", "Cells in the running plan")
        .set(static_cast<i64>(total));
    inst.queue_depth->set(static_cast<i64>(total));
  }
  if (inst.events) {
    inst.events->emit("run_started", [&](obs::JsonWriter& w) {
      w.field("cells", static_cast<i64>(total))
          .field("jobs", static_cast<i64>(jobs));
    });
  }

  InputCache cache(std::move(uses), inst);

  // Shared cursor + in-order emission. Workers claim cells from `next`;
  // finished results park in out.cells until every earlier cell is done,
  // then the emit lock drains the completed prefix through on_cell — so
  // callbacks are serialized AND in plan order, making streamed output
  // byte-identical to a serial run.
  std::atomic<usize> next{0};
  std::atomic<bool> abort{false};
  std::mutex emit_mutex;
  std::vector<u8> completed(total, 0);
  usize next_emit = 0;

  const auto on_cell_error = [&](usize i, const char* what) {
    if (inst.cells_failed) inst.cells_failed->add(1);
    if (inst.events) {
      const std::string error(what);
      inst.events->emit("cell_failed", [&](obs::JsonWriter& w) {
        w.field("run_id", plan.cells[i].run_id())
            .field("index", static_cast<i64>(i))
            .field("error", error);
      });
    }
    abort.store(true, std::memory_order_relaxed);
  };

  const auto worker = [&](usize) {
    while (!abort.load(std::memory_order_relaxed)) {
      const usize i = next.fetch_add(1);
      if (i >= total) return;
      if (inst.queue_depth) {
        inst.queue_depth->set(
            static_cast<i64>(total - std::min<usize>(i + 1, total)));
      }
      if (inst.events) {
        inst.events->emit("cell_started", [&](obs::JsonWriter& w) {
          w.field("run_id", plan.cells[i].run_id())
              .field("index", static_cast<i64>(i));
        });
      }
      try {
        const std::shared_ptr<const KernelInput> input =
            cache.acquire(keys[i], *kernels[i], plan.cells[i]);
        Timer timer;
        CellResult result =
            run_cell_with_input(plan.cells[i], *kernels[i], *input, options);
        result.host_seconds = timer.seconds();
        cache.release(keys[i]);
        if (inst.cells_completed) inst.cells_completed->add(1);
        if (inst.cell_seconds) inst.cell_seconds->observe(result.host_seconds);
        if (inst.events) {
          inst.events->emit("cell_finished", [&](obs::JsonWriter& w) {
            w.field("run_id", plan.cells[i].run_id())
                .field("index", static_cast<i64>(i))
                .field("host_seconds", result.host_seconds)
                .field("cycles", static_cast<i64>(result.meas.cycles))
                .field("sim_memory_bytes", result.sim_memory_bytes);
          });
        }
        std::lock_guard lock(emit_mutex);
        out.cells[i] = std::move(result);
        completed[i] = 1;
        while (next_emit < total && completed[next_emit] != 0) {
          if (on_cell) on_cell(out.cells[next_emit], next_emit, total);
          ++next_emit;
        }
      } catch (const std::exception& e) {
        on_cell_error(i, e.what());
        throw;
      } catch (...) {
        on_cell_error(i, "unknown error");
        throw;
      }
    }
  };

  Timer total_timer;
  run_workers(jobs, worker);
  out.host_seconds = total_timer.seconds();
  out.inputs_generated = cache.generated();
  if (inst.queue_depth) inst.queue_depth->set(0);
  if (inst.events) {
    inst.events->emit("run_finished", [&](obs::JsonWriter& w) {
      w.field("cells", static_cast<i64>(total))
          .field("host_seconds", out.host_seconds)
          .field("inputs_generated", static_cast<i64>(out.inputs_generated));
    });
  }
  return out;
}

}  // namespace archgraph::sweep
