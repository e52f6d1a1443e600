// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/machine_spec.hpp"

namespace archgraph::bench {

/// The canonical paper machines, as spec strings every bench shares (the
/// single source of truth for "what the paper ran on"). Compose overrides by
/// appending — later keys win — e.g. paper_mta_spec(4) + ",streams=64" or
/// paper_smp_spec(8) + ",l2_kb=512".
inline std::string paper_mta_spec(u32 procs) {
  return "mta:procs=" + std::to_string(procs);
}
inline std::string paper_smp_spec(u32 procs) {
  return "smp:procs=" + std::to_string(procs);
}
/// The modern-comparison machine (Dehne & Yogaratnam's GPU CC study): a
/// SIMT accelerator whose `procs` axis counts streaming multiprocessors.
inline std::string paper_gpu_spec(u32 procs) {
  return "gpu:procs=" + std::to_string(procs);
}

/// The scaled-L2 SMP methodology (EXPERIMENTS.md): benches run inputs scaled
/// down from the paper's 1M+-element problems, so the stock 4 MB L2 is shrunk
/// proportionally to keep working sets out of cache — the regime the paper's
/// SMP measurements live in.
inline std::string scaled_smp_spec(u32 procs, u64 l2_kb = 512) {
  return paper_smp_spec(procs) + ",l2_kb=" + std::to_string(l2_kb);
}

/// Problem-size scale: benches honor ARCHGRAPH_BENCH_SCALE=quick|default|full
/// so CI smoke runs stay fast while full reproductions use bigger inputs.
/// Unset or empty means default; any other value throws, so a typo cannot
/// silently run the default grid.
enum class Scale { kQuick, kDefault, kFull };

inline Scale scale_from_env() {
  const char* env = std::getenv("ARCHGRAPH_BENCH_SCALE");
  const std::string s = env == nullptr ? "" : env;
  if (s == "quick") return Scale::kQuick;
  if (s == "full") return Scale::kFull;
  AG_CHECK(s.empty() || s == "default",
           "ARCHGRAPH_BENCH_SCALE wants quick|default|full, got '" + s + "'");
  return Scale::kDefault;
}

/// Host worker threads the benches hand to sweep::run_plan
/// (RunOptions::jobs): ARCHGRAPH_BENCH_JOBS=N, default 0 = one per hardware
/// thread. Simulated cycles are identical for every value — jobs only
/// changes how fast the grid executes on the host.
inline usize jobs_from_env() {
  const char* env = std::getenv("ARCHGRAPH_BENCH_JOBS");
  if (env == nullptr) return 0;
  return static_cast<usize>(parse_positive_i64("ARCHGRAPH_BENCH_JOBS", env));
}

/// Runs a bench's body and reports what escapes it the way the tools do: an
/// exception (a bad ARCHGRAPH_BENCH_* value, a failed self-check) prints
/// "<bench>: <message>" on stderr and exits 1, instead of reaching
/// std::terminate and aborting. Every bench main() is one call to this.
inline int run_main(const char* bench, int (*body)()) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << bench << ": " << e.what() << '\n';
    return 1;
  }
}

/// ARCHGRAPH_BENCH_PROFILE=1 attaches the interval profiler to every sweep
/// cell a bench runs (RunOptions::profile); each bench record then carries a
/// "profile" object with the counter-series summary and per-data-structure
/// memory attribution. Off by default — profiling is read-only but the
/// documents grow.
inline bool profile_from_env() {
  const char* env = std::getenv("ARCHGRAPH_BENCH_PROFILE");
  return env != nullptr && *env != '\0' && std::string{env} != "0";
}

// ------------------------------------------------------ canned sweep specs
// The paper's experiment grids as sweep-spec strings (src/sweep/spec.hpp
// grammar). These are the single definition of each grid: the fig/table
// benches expand and run them through sweep::run_plan, and archgraph_sweep
// resolves them by name ("fig1", "fig2", "table1", "ci"), so a bench and a
// `archgraph_sweep run fig1` produce identical cells — cycle for cycle.

/// "{a,b,c}" for several values, "a" for one.
inline std::string brace_list(const std::vector<i64>& values) {
  std::string out;
  if (values.size() > 1) out += '{';
  for (usize i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  if (values.size() > 1) out += '}';
  return out;
}

/// Figure 1 (list ranking): MTA walk code and SMP Helman-JaJa, p = 1,2,4,8,
/// Ordered and Random layouts, across problem sizes. The SMP half carries
/// the scaled-L2 override (see scaled_smp_spec above).
inline std::vector<std::string> fig1_sweep_specs(Scale scale) {
  std::vector<i64> sizes;
  switch (scale) {
    case Scale::kQuick:
      sizes = {1 << 14, 1 << 16};
      break;
    case Scale::kDefault:
      sizes = {1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20};
      break;
    case Scale::kFull:
      sizes = {1 << 16, 1 << 18, 1 << 20, 1 << 21, 1 << 22};
      break;
  }
  const std::string ns = brace_list(sizes);
  return {
      "kernel=lr_walk machine=mta:procs={1,2,4,8} layout={ordered,random} n=" +
          ns,
      "kernel=lr_hj machine=smp:procs={1,2,4,8},l2_kb=512 "
      "layout={ordered,random} n=" +
          ns,
  };
}

/// Figure 2 (connected components): Shiloach-Vishkin on all three machines,
/// p = 1,2,4,8, random graphs with m swept from 4n to 20n. The GPU runs the
/// machine-neutral MTA kernel — same algorithm, SIMT issue discipline.
inline std::vector<std::string> fig2_sweep_specs(Scale scale) {
  i64 n = 0;
  std::vector<i64> edge_factors{4, 8, 12, 16, 20};
  switch (scale) {
    case Scale::kQuick:
      n = 1 << 13;
      edge_factors = {4, 12, 20};
      break;
    case Scale::kDefault:
      n = 1 << 15;
      break;
    case Scale::kFull:
      n = 1 << 17;
      break;
  }
  std::vector<i64> ms;
  ms.reserve(edge_factors.size());
  for (const i64 f : edge_factors) ms.push_back(f * n);
  const std::string grid =
      " n=" + std::to_string(n) + " m=" + brace_list(ms);
  return {
      "kernel=cc_sv_mta machine=mta:procs={1,2,4,8}" + grid,
      "kernel=cc_sv_smp machine=smp:procs={1,2,4,8}" + grid,
      "kernel=cc_sv_mta machine=gpu:procs={1,2,4,8}" + grid,
  };
}

/// Table 1 (MTA utilization): list ranking on Random and Ordered lists and
/// connected components, p = 1,4,8. Seeds are the benches' historical fixed
/// ones (0xf1a9 for the random list, 0xcc5eed for the graph).
inline std::vector<std::string> table1_sweep_specs(Scale scale) {
  i64 list_n = 0, cc_n = 0;
  switch (scale) {
    case Scale::kQuick:
      list_n = 1 << 16;
      cc_n = 1 << 12;
      break;
    case Scale::kDefault:
      list_n = 1 << 20;
      cc_n = 1 << 14;
      break;
    case Scale::kFull:
      list_n = 1 << 22;
      cc_n = 1 << 16;
      break;
  }
  const i64 cc_m = cc_n * 17;  // ~ n log n, as in the paper's Table 1 input
  return {
      "kernel=lr_walk machine=mta:procs={1,4,8} layout=random n=" +
          std::to_string(list_n) + " seed=61865",
      "kernel=lr_walk machine=mta:procs={1,4,8} layout=ordered n=" +
          std::to_string(list_n),
      "kernel=cc_sv_mta machine=mta:procs={1,4,8} n=" + std::to_string(cc_n) +
          " m=" + std::to_string(cc_m) + " seed=13393645",
  };
}

/// Greedy coloring (the Çatalyürek/Feo/Gebremedhin experiment shape):
/// speculative recolor rounds on both machines, branchy and branch-avoiding
/// inner loops, p = 1,2,4,8, with density (and so the round count) swept
/// from 4n to 20n. The coloring_rounds bench arranges these cells into the
/// rounds-vs-cycles and stall-mix tables recorded in EXPERIMENTS.md.
inline std::vector<std::string> coloring_sweep_specs(Scale scale) {
  i64 n = 0;
  std::vector<i64> edge_factors{4, 8, 12, 16, 20};
  switch (scale) {
    case Scale::kQuick:
      n = 1 << 11;
      edge_factors = {4, 12, 20};
      break;
    case Scale::kDefault:
      n = 1 << 13;
      break;
    case Scale::kFull:
      n = 1 << 15;
      break;
  }
  std::vector<i64> ms;
  ms.reserve(edge_factors.size());
  for (const i64 f : edge_factors) ms.push_back(f * n);
  const std::string grid = " n=" + std::to_string(n) + " m=" + brace_list(ms);
  return {
      "kernel={color_greedy_mta,color_greedy_mta_ba} "
      "machine=mta:procs={1,2,4,8}" +
          grid,
      "kernel={color_greedy_smp,color_greedy_smp_ba} "
      "machine=smp:procs={1,2,4,8}" +
          grid,
      "kernel={color_greedy_mta,color_greedy_mta_ba} "
      "machine=gpu:procs={1,2,4,8}" +
          grid,
  };
}

/// The CI gate: two cells (one per architecture and workload family) small
/// enough to run on every commit. baselines/ci_quick.jsonl is the committed
/// golden for exactly this sweep.
inline std::vector<std::string> ci_sweep_specs() {
  return {
      "kernel=lr_walk machine=mta:procs=2 layout=random n=4096",
      "kernel=cc_sv_smp machine=smp:procs=2,l2_kb=64 n=1024 m=4096",
  };
}

/// The frontier CI gate: every kernel built on the frontier data shapes
/// (sparse/dense frontiers over a simulated CSR) at smoke scale on both
/// machines, plus cc_sv_mta — the CC kernel must stay cycle-identical to its
/// hand-written original forever, and this grid is where that is enforced. baselines/frontier_quick.jsonl is the committed golden
/// for exactly this sweep (fixed scale: it never varies with
/// ARCHGRAPH_BENCH_SCALE, a baseline must match one grid).
inline std::vector<std::string> frontier_sweep_specs() {
  return {
      "kernel={color_greedy_mta,color_greedy_mta_ba,bfs_tree_mta} "
      "machine=mta:procs=2 n=1024 m=4096",
      "kernel={color_greedy_smp,color_greedy_smp_ba,bfs_tree_smp} "
      "machine=smp:procs=2,l2_kb=64 n=1024 m=4096",
      "kernel=cc_sv_mta machine=mta:procs=2 n=1024 m=4096",
  };
}

/// The GPU CI gate: the machine-neutral kernel families at smoke scale on
/// the SIMT machine. baselines/gpu_quick.jsonl is the committed golden for
/// exactly this sweep (fixed scale, like the frontier gate: a baseline must
/// match one grid).
inline std::vector<std::string> gpu_sweep_specs() {
  return {
      "kernel={cc_sv_mta,color_greedy_mta,color_greedy_mta_ba,bfs_tree_mta} "
      "machine=gpu:procs=2 n=1024 m=4096",
      "kernel=lr_walk machine=gpu:procs=2 layout=random n=4096",
  };
}

/// The all-kernel gate: every registry kernel on each of the three machine
/// presets at the perfbench kernel_mix sizes (lists n=4096 in both layouts,
/// graphs n=1024 m=4096). The other gates never run lr_wyllie, lr_seq,
/// cc_uf_seq or the SMP-shaped kernels on the GPU; this one runs every
/// kernel x machine pairing. baselines/kernels_quick.jsonl is the committed
/// golden (fixed scale, like the frontier gate).
inline std::vector<std::string> kernels_sweep_specs() {
  std::vector<std::string> specs;
  for (const char* machine :
       {"mta:procs=2", "smp:procs=2,l2_kb=64", "gpu:procs=2"}) {
    specs.push_back(std::string{"kernel={lr_walk,lr_hj,lr_wyllie,lr_seq} "
                                "machine="} +
                    machine + " layout={ordered,random} n=4096");
    specs.push_back(
        std::string{"kernel={cc_sv_mta,cc_sv_smp,cc_uf_seq,color_greedy_mta,"
                    "color_greedy_smp,color_greedy_mta_ba,color_greedy_smp_ba,"
                    "bfs_tree_mta,bfs_tree_smp} machine="} +
        machine + " n=1024 m=4096");
  }
  return specs;
}

inline std::vector<std::string> canned_sweep_names() {
  return {"fig1", "fig2",     "table1", "coloring",
          "ci",   "frontier", "gpu",    "kernels"};
}

/// Resolves a canned grid by name; empty for unknown names.
inline std::vector<std::string> canned_sweep(const std::string& name,
                                             Scale scale) {
  if (name == "fig1") return fig1_sweep_specs(scale);
  if (name == "fig2") return fig2_sweep_specs(scale);
  if (name == "table1") return table1_sweep_specs(scale);
  if (name == "coloring") return coloring_sweep_specs(scale);
  if (name == "ci") return ci_sweep_specs();
  if (name == "frontier") return frontier_sweep_specs();
  if (name == "gpu") return gpu_sweep_specs();
  if (name == "kernels") return kernels_sweep_specs();
  return {};
}

/// If ARCHGRAPH_BENCH_CSV=<dir> is set, writes `table` to <dir>/<name>.csv
/// (for plotting the figures); otherwise does nothing. Returns false (with
/// the errno reason on stderr) when the file cannot be written.
inline bool maybe_write_csv(const archgraph::Table& table,
                            const std::string& name) {
  const char* dir = std::getenv("ARCHGRAPH_BENCH_CSV");
  if (dir == nullptr) return true;
  const std::string path = std::string{dir} + "/" + name + ".csv";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << path << ": "
              << std::strerror(errno) << '\n';
    return false;
  }
  out << table.to_csv();
  out.flush();
  if (!out) {
    std::cerr << "warning: short write to " << path << ": "
              << std::strerror(errno) << '\n';
    return false;
  }
  std::cout << "(csv written to " << path << ")\n";
  return true;
}

/// Version of the BENCH_*.json document schema; consumers (the sweep
/// regression gate among them) refuse files with a different version rather
/// than mis-reading them.
inline constexpr i64 kBenchJsonSchemaVersion = 1;

/// Machine-readable twin of a bench's printed tables. If
/// ARCHGRAPH_BENCH_JSON=<dir> is set, collects one flat JSON object per
/// measurement and writes `{"bench": <name>, "schema_version": 1,
/// "records": [...]}` to <dir>/BENCH_<name>.json on write() (the destructor
/// writes as a backstop); with the variable unset every call is a no-op.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    const char* dir = std::getenv("ARCHGRAPH_BENCH_JSON");
    if (dir != nullptr) dir_ = dir;
  }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { write(); }

  bool active() const { return !dir_.empty(); }
  usize num_records() const { return records_.size(); }

  /// Appends one record; `fill` receives a writer with the record's object
  /// already open (add fields only — the object is closed here).
  template <typename F>
  void record(F&& fill) {
    if (!active()) return;
    obs::JsonWriter w;
    w.begin_object();
    fill(w);
    w.end_object();
    records_.push_back(w.take());
  }

  /// Records the host-side execution summary of the sweep(s) this bench ran
  /// (jobs fanned out, wall-clock, throughput, input-cache effectiveness);
  /// written as a "host" object in the document. Accumulates across calls so
  /// multi-plan benches report one total.
  void add_host_summary(usize jobs, usize cells, double host_seconds,
                        u64 inputs_generated) {
    host_jobs_ = static_cast<i64>(jobs);
    host_cells_ += static_cast<i64>(cells);
    host_seconds_ += host_seconds;
    host_inputs_ += static_cast<i64>(inputs_generated);
    has_host_summary_ = true;
  }

  /// Embeds the bench's host-telemetry registry
  /// (obs::telemetry::MetricsRegistry::to_json()) as the document's
  /// "host_metrics" member — the JSON twin of an OpenMetrics export. The
  /// last call wins; pass the registry after the final run_plan so the
  /// document carries the whole campaign.
  void set_host_metrics(std::string registry_json) {
    host_metrics_json_ = std::move(registry_json);
  }

  /// Writes the document once; false (with the errno reason on stderr) on
  /// open/write failure or when inactive.
  bool write() {
    if (!active()) return false;
    if (written_) return wrote_ok_;
    written_ = true;
    obs::JsonWriter doc;
    doc.begin_object()
        .field("bench", name_)
        .field("schema_version", kBenchJsonSchemaVersion);
    if (has_host_summary_) {
      doc.key("host")
          .begin_object()
          .field("jobs", host_jobs_)
          .field("cells", host_cells_)
          .field("seconds", host_seconds_)
          .field("cells_per_sec",
                 host_seconds_ > 0.0 ? host_cells_ / host_seconds_ : 0.0)
          .field("inputs_generated", host_inputs_)
          .end_object();
    }
    if (!host_metrics_json_.empty()) {
      doc.key("host_metrics").raw(host_metrics_json_);
    }
    doc.key("records").begin_array();
    for (const std::string& r : records_) {
      doc.raw(r);
    }
    doc.end_array().end_object();

    const std::string path = dir_ + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << ": "
                << std::strerror(errno) << '\n';
      return wrote_ok_ = false;
    }
    out << doc.str() << '\n';
    out.flush();
    if (!out) {
      std::cerr << "warning: short write to " << path << ": "
                << std::strerror(errno) << '\n';
      return wrote_ok_ = false;
    }
    std::cout << "(json written to " << path << ")\n";
    return wrote_ok_ = true;
  }

 private:
  std::string name_;
  std::string dir_;
  std::vector<std::string> records_;
  i64 host_jobs_ = 0;
  i64 host_cells_ = 0;
  double host_seconds_ = 0.0;
  i64 host_inputs_ = 0;
  std::string host_metrics_json_;
  bool has_host_summary_ = false;
  bool written_ = false;
  bool wrote_ok_ = false;
};

/// Appends "phases": [...] to an open record object — the per-phase
/// breakdown (region and barrier-phase spans) captured by a trace session
/// (or carried on a sweep::CellResult).
inline void add_phase_breakdown(obs::JsonWriter& w,
                                const std::vector<obs::SpanRecord>& spans) {
  w.key("phases").begin_array();
  for (const obs::SpanRecord& s : spans) {
    if (s.kind != "region" && s.kind != "phase") continue;
    w.begin_object()
        .field("name", s.name)
        .field("kind", s.kind)
        .field("depth", s.depth)
        .field("cycles", s.delta.cycles)
        .field("instructions", s.delta.instructions)
        .field("utilization", s.utilization())
        .field("seconds", s.seconds())
        .end_object();
  }
  w.end_array();
}

inline void add_phase_breakdown(obs::JsonWriter& w,
                                const obs::TraceSession& session) {
  add_phase_breakdown(w, session.spans());
}

/// Appends "profile": {...} to an open record object when the cell carried a
/// compact profile (sweep::CellResult::profile_json, non-empty only under
/// RunOptions::profile). No-op otherwise, so records keep a stable schema
/// with profiling off.
inline void add_profile(obs::JsonWriter& w, const std::string& profile_json) {
  if (!profile_json.empty()) {
    w.key("profile").raw(profile_json);
  }
}

inline void print_header(const std::string& title, const std::string& what) {
  std::cout << "==============================================================="
               "=================\n"
            << title << '\n'
            << what << '\n'
            << "simulated machines: Cray MTA-2 (220 MHz), Sun E4500-class "
               "SMP (400 MHz),\n"
               "                    and a SIMT accelerator (1 GHz, 32-lane "
               "warps)\n"
            << "==============================================================="
               "=================\n\n";
}

}  // namespace archgraph::bench
