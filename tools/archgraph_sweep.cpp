// archgraph_sweep — declarative experiment campaigns over the simulated
// machines: expand a sweep spec into its run matrix, execute every cell, and
// gate the results against a committed baseline.
//
// Usage:
//   archgraph_sweep run SPEC... [--out FILE] [--jobs N] [--dry-run]
//                               [--no-verify] [--profile]
//                               [--profile-dir DIR] [--profile-interval K]
//                               [--events-out FILE] [--metrics-out FILE]
//                               [--no-progress]
//   archgraph_sweep check RESULTS --against BASELINE [--tol T]
//                                 [--breakdown-tol T]
//   archgraph_sweep verify-manifest MANIFEST RESULTS
//   archgraph_sweep --list
//
// SPEC is either a spec string in the src/sweep/spec.hpp grammar, e.g.
//   "kernel=lr_walk machine=mta:procs={1,2,4,8} layout=random n=65536"
// or the name of a canned grid (bench_util.hpp; `--list` prints them) — the
// same grids the bench binaries run, honoring
// ARCHGRAPH_BENCH_SCALE=quick|default|full.
// Several SPECs concatenate into one plan (duplicate cells are rejected).
//
// Flags are strict: a repeated flag, or --profile-interval without
// --profile/--profile-dir, exits 1 naming it.
//
// `run` writes one JSON object per cell (JSONL, schema_version-stamped) to
// --out, or stdout with the progress report on stderr. Cells fan out over
// --jobs N host threads (default: one per hardware thread); records are
// always emitted in plan order, so the JSONL is byte-identical for every N.
// --profile attaches the interval profiler to every cell; --profile-dir DIR
// (implies --profile) additionally writes one Chrome trace per cell to
// DIR/<sanitized_run_id>-<hash>.trace.json (hashed so run IDs that sanitize
// alike cannot overwrite each other). Profiling never changes the JSONL —
// simulated counters are byte-identical with the profiler attached.
// Host telemetry rides alongside, equally observational: a live progress
// line on stderr (TTY: redrawn in place; otherwise plain rate-limited lines;
// --no-progress disables it), --events-out FILE streams the structured host
// event log (JSONL: run_started/cell_started/cell_finished/cell_failed/
// input_generated/run_finished with monotonic timestamps), --metrics-out
// FILE writes the host MetricsRegistry as OpenMetrics text after the run.
// None of it changes the result JSONL by a byte (ci_smoke binary-diffs
// telemetry on vs off). A run with --out also writes
// <out>.manifest.json — the provenance manifest (code version, canonical
// specs, per-axis values, and an FNV-1a content hash per cell) that
// `verify-manifest` checks against a result store.
// `check` re-loads two such files, matches cells by run ID, and fails
// (exit 1) when any gated metric leaves the ±tol band, any cycle-accounting
// category share drifts more than --breakdown-tol (default: --tol) in
// absolute terms, or a cell is missing on either side — the regression gate
// ci_smoke.sh runs on every commit.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "obs/telemetry/progress.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "sim/machine_spec.hpp"
#include "sweep/manifest.hpp"
#include "sweep/registry.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "sweep/store.hpp"

namespace {

using namespace archgraph;

int run_list() {
  std::cout << "canned sweeps (ARCHGRAPH_BENCH_SCALE=quick|default|full):\n";
  const bench::Scale scale = bench::scale_from_env();
  const std::vector<std::string> canned_names = bench::canned_sweep_names();
  usize width = 0;
  for (const std::string& name : canned_names) {
    width = std::max(width, name.size());
  }
  for (const std::string& name : canned_names) {
    const std::vector<std::string> specs = bench::canned_sweep(name, scale);
    usize cells = 0;
    for (const std::string& s : specs) {
      cells += sweep::expand(s).cells.size();
    }
    std::cout << "  " << name << std::string(width - name.size() + 2, ' ')
              << cells << " cells\n";
    for (const std::string& s : specs) {
      std::cout << "      " << s << '\n';
    }
  }
  std::cout << "\nkernels:\n" << sweep::kernel_listing();
  std::cout << "\nmachine presets: mta, smp, gpu "
               "(overrides: preset:key=value,..., braces expand)\n";
  std::cout << "\nrun executes cells on --jobs N host threads (default here: "
            << sweep::auto_jobs()
            << " = hardware concurrency);\noutput is byte-identical for "
               "every N — simulated cycles never depend on host "
               "parallelism.\n";
  return 0;
}

/// Flags are strict: a flag given twice is an error rather than last-wins.
void check_once(std::set<std::string>& seen, const std::string& arg) {
  AG_CHECK(arg.rfind("--", 0) != 0 || seen.insert(arg).second,
           "flag '" + arg + "' given twice");
}

/// A SPEC argument is a canned-grid name or a literal spec string.
std::vector<std::string> resolve_spec(const std::string& arg) {
  const std::vector<std::string> canned =
      bench::canned_sweep(arg, bench::scale_from_env());
  if (!canned.empty()) return canned;
  std::string canned_names;
  for (const std::string& name : bench::canned_sweep_names()) {
    if (!canned_names.empty()) canned_names += ", ";
    canned_names += name;
  }
  AG_CHECK(arg.find('=') != std::string::npos,
           "'" + arg + "' is neither a canned sweep (" + canned_names +
               ") nor a spec string (axis=value ...)");
  return {arg};
}

int run_run(const std::vector<std::string>& args) {
  std::vector<std::string> spec_texts;
  std::string out_path;
  std::string events_path;
  std::string metrics_path;
  bool dry_run = false;
  bool progress = true;
  sweep::RunOptions options;
  options.jobs = 0;  // auto: one worker per hardware thread
  std::set<std::string> seen;
  for (usize i = 0; i < args.size(); ++i) {
    check_once(seen, args[i]);
    if (args[i] == "--out") {
      AG_CHECK(i + 1 < args.size(), "--out needs a file path");
      out_path = args[++i];
    } else if (args[i] == "--events-out") {
      AG_CHECK(i + 1 < args.size(), "--events-out needs a file path");
      events_path = args[++i];
    } else if (args[i] == "--metrics-out") {
      AG_CHECK(i + 1 < args.size(), "--metrics-out needs a file path");
      metrics_path = args[++i];
    } else if (args[i] == "--no-progress") {
      progress = false;
    } else if (args[i] == "--jobs") {
      AG_CHECK(i + 1 < args.size(), "--jobs needs a worker count");
      options.jobs =
          static_cast<usize>(parse_positive_i64("--jobs", args[++i]));
    } else if (args[i] == "--dry-run") {
      dry_run = true;
    } else if (args[i] == "--no-verify") {
      options.verify = false;
    } else if (args[i] == "--profile") {
      options.profile = true;
    } else if (args[i] == "--profile-dir") {
      AG_CHECK(i + 1 < args.size(), "--profile-dir needs a directory");
      options.profile_dir = args[++i];
    } else if (args[i] == "--profile-interval") {
      AG_CHECK(i + 1 < args.size(), "--profile-interval needs a cycle count");
      options.profile_interval =
          parse_positive_i64("--profile-interval", args[++i]);
    } else {
      AG_CHECK(args[i].rfind("--", 0) != 0,
               "unknown run flag '" + args[i] +
                   "' (valid: --out FILE, --jobs N, --dry-run, --no-verify, "
                   "--profile, --profile-dir DIR, --profile-interval K, "
                   "--events-out FILE, --metrics-out FILE, --no-progress)");
      const std::vector<std::string> resolved = resolve_spec(args[i]);
      spec_texts.insert(spec_texts.end(), resolved.begin(), resolved.end());
    }
  }
  AG_CHECK(!seen.contains("--profile-interval") || options.profile ||
               !options.profile_dir.empty(),
           "--profile-interval needs --profile or --profile-dir");
  AG_CHECK(!spec_texts.empty(),
           "run needs at least one SPEC (a spec string or a canned name — "
           "see --list)");

  const sweep::SweepPlan plan = sweep::expand_all(spec_texts);
  if (dry_run) {
    std::cout << plan.to_string();
    std::cerr << plan.cells.size() << " cells\n";
    return 0;
  }

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    AG_CHECK(file.good(), "cannot write --out file " + out_path);
  }
  std::ostream& out = out_path.empty() ? std::cout : file;

  obs::telemetry::HostTelemetry telemetry;
  if (!events_path.empty()) {
    telemetry.events =
        std::make_unique<obs::telemetry::EventLog>(events_path);
  }
  options.telemetry = &telemetry;

  std::optional<obs::telemetry::ProgressReporter> reporter;
  if (progress) {
    reporter.emplace(std::cerr, plan.cells.size(),
                     obs::telemetry::fd_is_tty(fileno(stderr)));
  }

  // Stream each cell's record as it finishes: one whole line per record,
  // flushed at once, so a killed sweep still leaves the completed prefix on
  // disk with no torn line. Emission is in plan order even under --jobs N,
  // so this output is byte-identical for every N. The progress reporter is
  // driven from the same serialized in-order callback, so its stderr lines
  // cannot interleave with the JSONL stream.
  Timer timer;
  const sweep::PlanRun run = sweep::run_plan(
      plan, options,
      [&](const sweep::CellResult& r, usize index, usize total) {
        (void)index;
        (void)total;
        const std::string line =
            sweep::record_json(sweep::to_record(r)) + '\n';
        out.write(line.data(), static_cast<std::streamsize>(line.size()));
        out.flush();
        if (reporter) reporter->advance(r.cell.run_id(), timer.seconds());
      });
  if (reporter) reporter->finish();
  out.flush();
  AG_CHECK(out.good(), "short write" +
                           (out_path.empty() ? std::string{}
                                             : " to " + out_path));
  std::cerr << run.cells.size() << " cells in " << run.host_seconds
            << "s host (" << run.cells_per_sec() << " cells/sec, jobs="
            << run.jobs << ", " << run.inputs_generated
            << " inputs generated)";
  if (!out_path.empty()) {
    std::cerr << " -> " << out_path;
  }
  std::cerr << '\n';
  if (!options.profile_dir.empty()) {
    std::cerr << "profile traces in " << options.profile_dir << "/\n";
  }
  if (!out_path.empty()) {
    const std::string manifest_path = sweep::default_manifest_path(out_path);
    if (sweep::write_manifest_file(manifest_path,
                                   sweep::make_manifest(spec_texts, plan))) {
      std::cerr << "manifest -> " << manifest_path << '\n';
    }
  }
  if (telemetry.events) {
    AG_CHECK(telemetry.events->flush(),
             "short write to --events-out file " + events_path);
    std::cerr << telemetry.events->events() << " events -> " << events_path
              << '\n';
  }
  if (!metrics_path.empty()) {
    std::ofstream metrics_file(metrics_path);
    AG_CHECK(metrics_file.good(),
             "cannot write --metrics-out file " + metrics_path);
    metrics_file << telemetry.registry.to_openmetrics();
    metrics_file.flush();
    AG_CHECK(metrics_file.good(),
             "short write to --metrics-out file " + metrics_path);
    std::cerr << "metrics -> " << metrics_path << '\n';
  }
  return 0;
}

int run_verify_manifest(const std::vector<std::string>& args) {
  AG_CHECK(args.size() == 2 && args[0].rfind("--", 0) != 0 &&
               args[1].rfind("--", 0) != 0,
           "usage: archgraph_sweep verify-manifest MANIFEST RESULTS");
  const sweep::RunManifest manifest = sweep::load_manifest_file(args[0]);
  const std::vector<sweep::ResultRecord> records =
      sweep::load_results_file(args[1]);
  const std::vector<std::string> problems =
      sweep::verify_manifest(manifest, records);
  for (const std::string& problem : problems) {
    std::cout << "FAIL " << problem << '\n';
  }
  if (!problems.empty()) {
    std::cout << problems.size() << " problem(s)\n";
    return 1;
  }
  std::cout << "manifest ok: " << manifest.cells.size() << " cells, code "
            << manifest.code_version << '\n';
  return 0;
}

int run_check(const std::vector<std::string>& args) {
  std::string current_path, baseline_path;
  sweep::CompareOptions options;
  std::set<std::string> seen;
  for (usize i = 0; i < args.size(); ++i) {
    check_once(seen, args[i]);
    if (args[i] == "--against") {
      AG_CHECK(i + 1 < args.size(), "--against needs a baseline file");
      baseline_path = args[++i];
    } else if (args[i] == "--tol") {
      AG_CHECK(i + 1 < args.size(), "--tol needs a number");
      options.tol = parse_f64("--tol", args[++i]);
      AG_CHECK(options.tol >= 0.0, "--tol wants a non-negative tolerance");
    } else if (args[i] == "--breakdown-tol") {
      AG_CHECK(i + 1 < args.size(), "--breakdown-tol needs a number");
      options.breakdown_tol = parse_f64("--breakdown-tol", args[++i]);
      AG_CHECK(options.breakdown_tol >= 0.0,
               "--breakdown-tol wants a non-negative share tolerance");
    } else {
      AG_CHECK(args[i].rfind("--", 0) != 0,
               "unknown check flag '" + args[i] +
                   "' (valid: --against FILE, --tol T, --breakdown-tol T)");
      AG_CHECK(current_path.empty(),
               "check takes one RESULTS file, got '" + current_path +
                   "' and '" + args[i] + "'");
      current_path = args[i];
    }
  }
  AG_CHECK(!current_path.empty(), "check needs a RESULTS file");
  AG_CHECK(!baseline_path.empty(), "check needs --against BASELINE");

  const std::vector<sweep::ResultRecord> current =
      sweep::load_results_file(current_path);
  const std::vector<sweep::ResultRecord> baseline =
      sweep::load_results_file(baseline_path);
  const sweep::CompareReport report =
      sweep::compare(current, baseline, options);
  std::cout << report.to_string();
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    AG_CHECK(argc >= 2,
             "usage: archgraph_sweep <run|check|verify-manifest|--list> ... "
             "(see --list)");
    const std::string command = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "run") return run_run(args);
    if (command == "check") return run_check(args);
    if (command == "verify-manifest") return run_verify_manifest(args);
    if (command == "--list" || command == "list") return run_list();
    AG_CHECK(false, "unknown command '" + command +
                        "' (valid: run, check, verify-manifest, --list)");
  } catch (const std::exception& e) {
    std::cerr << "archgraph_sweep: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
