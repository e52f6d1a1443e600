// archgraph_cli — run the library's kernels on generated or DIMACS inputs
// from the command line, on the simulated machines.
//
// Usage:
//   archgraph_cli cc     [--input FILE | --random n,m,seed]
//                        [--machine SPEC] [--procs P]
//   archgraph_cli rank   [--n N] [--layout ordered|random] [--seed S]
//                        [--algorithm walk|hj|wyllie|seq]
//                        [--machine SPEC] [--procs P]
//   archgraph_cli color  [--input FILE | --random n,m,seed]
//                        [--branch-avoiding]
//                        [--machine SPEC] [--procs P]
//   archgraph_cli bfs    [--input FILE | --random n,m,seed]
//                        [--machine SPEC] [--procs P]
//   archgraph_cli gen    --random n,m,seed --output FILE     (DIMACS writer)
//   archgraph_cli --list                       (kernels and machine presets)
//
// SPEC is a simulated-machine description parsed by sim::parse_machine_spec:
// a preset ("mta", "smp", or "gpu", the paper-default configurations)
// optionally followed by ":key=value,..." overrides, e.g. --machine
// mta:procs=40 or gpu:procs=8 (see src/sim/machine_spec.hpp for the key
// tables). It defaults to "mta". --procs P is shorthand for a procs=P
// override; an explicit procs= inside SPEC wins over it.
//
// Observability (rank, cc, color and bfs):
//   --trace FILE          write the phase/region JSONL event trace to FILE
//   --json                print the run-summary JSON document on stdout
//                         instead of the human-readable report
//   --profile             attach the interval profiler: counter timelines +
//                         per-data-structure memory attribution (summary in
//                         --json under "profile", brief table otherwise)
//   --profile-trace FILE  write a Chrome trace-event JSON (chrome://tracing,
//                         Perfetto) with counter tracks and phase spans;
//                         implies --profile
//   --profile-interval K  sampling period in simulated cycles (default 1024)
//   --metrics-out FILE    write the host-telemetry registry (wall-clock of
//                         the run, not simulated state) as OpenMetrics text;
//                         the same registry appears in --json under
//                         "host_metrics"
//
// Runs print cycles, simulated seconds and utilization. Every run self-checks
// against a sequential host reference.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <memory>
#include <string>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/concomp/concomp.hpp"
#include "core/experiment.hpp"
#include "core/kernels/kernels.hpp"
#include "core/listrank/listrank.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/linked_list.hpp"
#include "graph/validate.hpp"
#include "obs/prof/prof.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/machine_spec.hpp"
#include "sweep/registry.hpp"

namespace {

using namespace archgraph;

/// Flags that take no value.
bool is_bool_flag(const std::string& name) {
  return name == "json" || name == "profile" || name == "branch-avoiding";
}

struct Options {
  std::string command;
  std::map<std::string, std::string> named;

  bool has(const std::string& key) const { return named.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  i64 get_int(const std::string& key, i64 fallback) const {
    const auto it = named.find(key);
    if (it == named.end()) return fallback;
    return parse_i64("--" + key, it->second);
  }
  /// For count-like flags (--procs): "--procs wants a positive integer,
  /// got '0'" instead of a machine-spec error from deep inside the run.
  i64 get_positive_int(const std::string& key, i64 fallback) const {
    const auto it = named.find(key);
    if (it == named.end()) return fallback;
    return parse_positive_i64("--" + key, it->second);
  }
};

Options parse(int argc, char** argv) {
  AG_CHECK(argc >= 2,
           "usage: archgraph_cli <cc|rank|color|bfs|gen> [--flag value]");
  Options opts;
  opts.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    AG_CHECK(flag.rfind("--", 0) == 0, "flags look like '--name value'");
    const std::string name = flag.substr(2);
    if (is_bool_flag(name)) {
      opts.named[name] = "1";
      continue;
    }
    AG_CHECK(i + 1 < argc, "flag --" + name + " needs a value");
    opts.named[name] = argv[++i];
  }
  return opts;
}

graph::EdgeList load_graph(const Options& opts) {
  if (opts.named.contains("input")) {
    return graph::read_dimacs_file(opts.get("input", "")).edges;
  }
  const std::string spec = opts.get("random", "10000,40000,1");
  i64 n = 0, m = 0;
  u64 seed = 0;
  AG_CHECK(std::sscanf(spec.c_str(), "%ld,%ld,%lu", &n, &m, &seed) == 3,
           "--random wants n,m,seed");
  return graph::random_graph(n, m, seed);
}

void report_simulated(const sim::Machine& machine) {
  std::cout << "cycles:        " << machine.cycles() << '\n'
            << "simulated:     " << machine.seconds() * 1e3 << " ms @ "
            << machine.clock_hz() / 1e6 << " MHz\n"
            << "utilization:   " << 100.0 * machine.utilization() << "%\n"
            << "instructions:  " << machine.stats().instructions << '\n';
  const sim::CycleBreakdown& b = machine.stats().breakdown;
  if (b.total() > 0) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    bool first = true;
    for (usize i = 0; i < sim::kCycleCatCount; ++i) {
      const auto cat = static_cast<sim::CycleCat>(i);
      if (b[cat] == 0) continue;
      if (!first) os << ", ";
      os << sim::cycle_cat_name(cat) << " " << 100.0 * b.share(cat) << "%";
      first = false;
    }
    std::cout << "cycle acct:    " << os.str() << '\n';
  }
}

/// Composes --machine SPEC with --procs P: P is inserted as the first
/// override, so an explicit procs= inside SPEC still wins (later spec keys
/// override earlier ones).
sim::MachineSpec parse_machine_opt(const std::string& text, u32 procs) {
  const auto colon = text.find(':');
  const std::string preset =
      colon == std::string::npos ? text : text.substr(0, colon);
  std::string composed = preset + ":procs=" + std::to_string(procs);
  if (colon != std::string::npos && colon + 1 < text.size()) {
    composed += ',';
    composed += text.substr(colon + 1);
  }
  return sim::parse_machine_spec(composed);
}

/// --profile / --profile-trace FILE / --profile-interval K: the interval
/// profiler, attached for the whole simulated run. Heap-held so the two
/// optional pieces (session, thread-local installation) compose simply.
struct Profiling {
  std::unique_ptr<obs::prof::ProfSession> session;
  std::unique_ptr<obs::prof::ProfSession::Install> install;
  std::string trace_path;

  bool enabled() const { return session != nullptr; }

  static Profiling from_options(const Options& opts) {
    Profiling p;
    p.trace_path = opts.get("profile-trace", "");
    if (opts.has("profile") || opts.has("profile-interval") ||
        !p.trace_path.empty()) {
      const i64 interval = opts.get_positive_int("profile-interval", 1024);
      p.session = std::make_unique<obs::prof::ProfSession>(interval);
      p.install =
          std::make_unique<obs::prof::ProfSession::Install>(*p.session);
    }
    return p;
  }

  void attach(sim::Machine& machine, const std::string& arch) {
    if (session != nullptr) session->attach(machine, arch);
  }
};

/// Human-readable --profile tail: timeline shape plus the hottest labeled
/// ranges (the full table lives in archgraph_prof_report).
void report_profile(const obs::prof::ProfSession& prof) {
  std::cout << "profile:       " << prof.sample_times().size()
            << " samples @ " << prof.interval() << " cycles\n";
  std::vector<obs::prof::RangeProfile> ranges = prof.range_profiles();
  std::sort(ranges.begin(), ranges.end(),
            [](const auto& a, const auto& b) {
              return a.accesses() > b.accesses();
            });
  const usize top = std::min<usize>(ranges.size(), 5);
  for (usize i = 0; i < top; ++i) {
    const obs::prof::RangeProfile& r = ranges[i];
    std::cout << "  " << r.name << ": " << r.accesses() << " accesses";
    if (r.miss_rate() >= 0.0) {
      std::cout << ", miss rate " << 100.0 * r.miss_rate() << "%";
    }
    std::cout << '\n';
  }
}

/// Shared tail of a traced simulated run: the JSONL trace to --trace FILE,
/// the Chrome trace to --profile-trace FILE, the host-telemetry registry to
/// --metrics-out FILE, then either the summary JSON document (--json, with
/// the profile and host_metrics objects spliced in) or the human report.
/// `host_seconds` is the host wall-clock the kernel run took — the one
/// number host telemetry has that the simulated counters don't.
void finish_simulated(obs::TraceSession& session, const sim::Machine& machine,
                      Profiling& prof, const Options& opts,
                      double host_seconds) {
  if (prof.enabled()) {
    prof.session->detach();  // unhook; the exported summary is self-contained
  }
  const std::string trace_path = opts.get("trace", "");
  if (!trace_path.empty()) {
    AG_CHECK(session.write_jsonl(trace_path),
             "cannot write --trace file " + trace_path);
    if (!opts.has("json")) {
      std::cout << "(trace written to " << trace_path << ")\n";
    }
  }
  if (!prof.trace_path.empty()) {
    AG_CHECK(prof.session->write_chrome_trace(prof.trace_path, &session),
             "cannot write --profile-trace file " + prof.trace_path);
    if (!opts.has("json")) {
      std::cout << "(profile trace written to " << prof.trace_path << ")\n";
    }
  }
  // Host telemetry: what this process spent, as opposed to what the machine
  // simulated. One run per process, so the registry is tiny — but it uses
  // the same instruments/exposition as the sweep executor's.
  obs::telemetry::HostTelemetry telemetry;
  telemetry.registry
      .counter("archgraph_cli_runs_completed", "Simulated kernel runs")
      .add(1);
  telemetry.registry
      .histogram("archgraph_cli_host_seconds",
                 "Host wall-clock of the simulated kernel run",
                 obs::telemetry::default_latency_buckets_seconds())
      .observe(host_seconds);
  const std::string metrics_path = opts.get("metrics-out", "");
  if (!metrics_path.empty()) {
    std::ofstream metrics_file(metrics_path);
    AG_CHECK(metrics_file.good(),
             "cannot write --metrics-out file " + metrics_path);
    metrics_file << telemetry.registry.to_openmetrics();
    metrics_file.flush();
    AG_CHECK(metrics_file.good(),
             "short write to --metrics-out file " + metrics_path);
    if (!opts.has("json")) {
      std::cout << "(metrics written to " << metrics_path << ")\n";
    }
  }
  if (opts.has("json")) {
    std::string summary = session.summary_json();
    if (prof.enabled()) {
      // summary_json() is one object; splice "profile" in before the brace.
      summary.insert(summary.size() - 1,
                     ",\"profile\":" + prof.session->profile_json());
    }
    summary.insert(summary.size() - 1,
                   ",\"host_metrics\":" + telemetry.registry.to_json());
    std::cout << summary << '\n';
  } else {
    report_simulated(machine);
    if (prof.enabled()) {
      report_profile(*prof.session);
    }
  }
}

int run_cc(const Options& opts) {
  const graph::EdgeList g = load_graph(opts);
  const std::string machine = opts.get("machine", "mta");
  const auto procs = static_cast<u32>(opts.get_positive_int("procs", 4));
  const bool json = opts.has("json");
  if (!json) {
    std::cout << "connected components: n=" << g.num_vertices()
              << " m=" << g.num_edges() << " machine=" << machine
              << " p=" << procs << '\n';
  }

  const sim::MachineSpec spec = parse_machine_opt(machine, procs);
  const std::string arch = sim::arch_name(spec.arch);
  // Built before the sessions so it outlives them: their destructors detach.
  std::unique_ptr<sim::Machine> m = sim::make_machine(spec);
  obs::TraceSession session("cc/sv/" + arch);
  obs::TraceSession::Install install(session);
  Profiling prof = Profiling::from_options(opts);
  session.attach(*m, arch);
  prof.attach(*m, arch);
  Timer host_timer;
  // The _mta kernel family is machine-neutral (full/empty bits work on any
  // sim::Machine); only the SMP variants carry cache-conscious layouts.
  const core::SimCcResult result = spec.arch == sim::MachineArch::kSmp
                                       ? core::sim_cc_sv_smp(*m, g)
                                       : core::sim_cc_sv_mta(*m, g);
  const double host_seconds = host_timer.seconds();
  AG_CHECK(result.labels == core::cc_union_find(g), "self-check failed");
  const i64 components =
      graph::validate::count_distinct_labels(result.labels);
  session.counter_add("cc.components", components);
  finish_simulated(session, *m, prof, opts, host_seconds);
  if (!json) {
    std::cout << "components:    " << components
              << " (verified against union-find)\n";
  }
  return 0;
}

int run_color(const Options& opts) {
  const graph::EdgeList g = load_graph(opts);
  const std::string machine = opts.get("machine", "mta");
  const auto procs = static_cast<u32>(opts.get_positive_int("procs", 4));
  const bool branch_avoiding = opts.has("branch-avoiding");
  const bool json = opts.has("json");
  if (!json) {
    std::cout << "greedy coloring: n=" << g.num_vertices()
              << " m=" << g.num_edges() << " variant="
              << (branch_avoiding ? "branch-avoiding" : "branchy")
              << " machine=" << machine << " p=" << procs << '\n';
  }

  const sim::MachineSpec spec = parse_machine_opt(machine, procs);
  const std::string arch = sim::arch_name(spec.arch);
  // Built before the sessions so it outlives them: their destructors detach.
  std::unique_ptr<sim::Machine> m = sim::make_machine(spec);
  obs::TraceSession session("color/greedy/" + arch);
  obs::TraceSession::Install install(session);
  Profiling prof = Profiling::from_options(opts);
  session.attach(*m, arch);
  prof.attach(*m, arch);
  Timer host_timer;
  core::SimColorResult result;
  if (spec.arch == sim::MachineArch::kSmp) {
    core::SmpColorParams params;
    params.branch_avoiding = branch_avoiding;
    result = core::sim_color_greedy_smp(*m, g, params);
  } else {
    core::MtaColorParams params;
    params.branch_avoiding = branch_avoiding;
    result = core::sim_color_greedy_mta(*m, g, params);
  }
  const double host_seconds = host_timer.seconds();
  // The speculative kernels' unique fixed point is the sequential first-fit
  // coloring, so the check is exact equality (plus properness) — see
  // color_greedy_sim.cpp.
  const std::vector<i64>& colors = result.colors;
  AG_CHECK(graph::validate::is_proper_coloring(g, colors),
           "self-check failed (coloring not proper)");
  AG_CHECK(colors == core::color_greedy_seq(graph::CsrGraph::from_edges(g)),
           "self-check failed (!= sequential greedy)");
  const i64 palette =
      colors.empty() ? 0 : *std::max_element(colors.begin(), colors.end()) + 1;
  session.counter_add("color.palette", palette);
  finish_simulated(session, *m, prof, opts, host_seconds);
  if (!json) {
    std::cout << "colors:        " << palette
              << " (verified proper, == sequential greedy)\n"
              << "rounds:        " << result.rounds << '\n';
  }
  return 0;
}

int run_bfs(const Options& opts) {
  const graph::EdgeList g = load_graph(opts);
  const std::string machine = opts.get("machine", "mta");
  const auto procs = static_cast<u32>(opts.get_positive_int("procs", 4));
  const bool json = opts.has("json");
  if (!json) {
    std::cout << "BFS spanning forest: n=" << g.num_vertices()
              << " m=" << g.num_edges() << " machine=" << machine
              << " p=" << procs << '\n';
  }

  const sim::MachineSpec spec = parse_machine_opt(machine, procs);
  const std::string arch = sim::arch_name(spec.arch);
  // Built before the sessions so it outlives them: their destructors detach.
  std::unique_ptr<sim::Machine> m = sim::make_machine(spec);
  obs::TraceSession session("bfs/tree/" + arch);
  obs::TraceSession::Install install(session);
  Profiling prof = Profiling::from_options(opts);
  session.attach(*m, arch);
  prof.attach(*m, arch);
  Timer host_timer;
  const core::SimBfsResult result = spec.arch == sim::MachineArch::kSmp
                                        ? core::sim_bfs_tree_smp(*m, g)
                                        : core::sim_bfs_tree_mta(*m, g);
  const double host_seconds = host_timer.seconds();
  // Levels are exact BFS distances on every schedule; parents are
  // race-resolved, so they are validated structurally instead of compared.
  AG_CHECK(graph::validate::is_bfs_forest(g, result.parent, result.level),
           "self-check failed (not a BFS forest)");
  AG_CHECK(result.level ==
               core::bfs_tree_seq(graph::CsrGraph::from_edges(g)).level,
           "self-check failed (levels != sequential BFS)");
  finish_simulated(session, *m, prof, opts, host_seconds);
  if (!json) {
    const std::vector<i64>& level = result.level;
    const i64 depth =
        level.empty() ? 0 : *std::max_element(level.begin(), level.end());
    std::cout << "components:    " << result.components
              << " (verified BFS forest, exact levels)\n"
              << "max depth:     " << depth << '\n'
              << "rounds:        " << result.rounds << '\n';
  }
  return 0;
}

int run_rank(const Options& opts) {
  const i64 n = opts.get_int("n", 1 << 20);
  const std::string layout = opts.get("layout", "random");
  const graph::LinkedList list =
      layout == "ordered"
          ? graph::ordered_list(n)
          : graph::random_list(n, static_cast<u64>(opts.get_int("seed", 1)));
  const std::string algorithm = opts.get("algorithm", "hj");
  const std::string machine = opts.get("machine", "mta");
  const auto procs = static_cast<u32>(opts.get_positive_int("procs", 4));
  const bool json = opts.has("json");
  if (!json) {
    std::cout << "list ranking: n=" << n << " layout=" << layout
              << " algorithm=" << algorithm << " machine=" << machine
              << " p=" << procs << '\n';
  }

  auto run_on = [&](sim::Machine& m) {
    if (algorithm == "walk") return core::sim_rank_list_walk(m, list);
    if (algorithm == "hj") return core::sim_rank_list_hj(m, list);
    if (algorithm == "wyllie") return core::sim_rank_list_wyllie(m, list);
    if (algorithm == "seq") return core::sim_rank_list_sequential(m, list);
    AG_CHECK(false, "unknown simulated --algorithm " + algorithm);
    return std::vector<i64>{};
  };
  const sim::MachineSpec spec = parse_machine_opt(machine, procs);
  const std::string arch = sim::arch_name(spec.arch);
  // Built before the sessions so it outlives them: their destructors detach.
  std::unique_ptr<sim::Machine> m = sim::make_machine(spec);
  obs::TraceSession session("rank/" + algorithm + "/" + arch);
  obs::TraceSession::Install install(session);
  Profiling prof = Profiling::from_options(opts);
  session.attach(*m, arch);
  prof.attach(*m, arch);
  Timer host_timer;
  const std::vector<i64> ranks = run_on(*m);
  const double host_seconds = host_timer.seconds();
  AG_CHECK(ranks == core::rank_sequential(list), "self-check failed");
  finish_simulated(session, *m, prof, opts, host_seconds);
  if (!json) {
    std::cout << "verified against the sequential ranking\n";
  }
  return 0;
}

/// `--list`: the simulator kernels (from the sweep registry, so this listing
/// and archgraph_sweep's can never drift apart) and the machine presets.
int run_list() {
  std::cout << "simulated kernels (sweep registry):\n"
            << sweep::kernel_listing();
  std::cout << "\nmachine presets (compose overrides as "
               "preset:key=value,...):\n"
            << "  mta         Cray MTA-2, 220 MHz, 128 streams/processor, "
               "hashed flat memory\n"
            << "  smp         Sun E4500-class SMP, 400 MHz, L1/L2 caches, "
               "shared bus\n"
            << "  gpu         SIMT accelerator, 1 GHz, 32-lane warps, "
               "coalesced global memory\n";
  return 0;
}

int run_gen(const Options& opts) {
  // gen simulates nothing, so there are no machine counters to report.
  AG_CHECK(!opts.has("json") && !opts.has("trace") && !opts.has("profile") &&
               !opts.has("profile-trace") && !opts.has("profile-interval") &&
               !opts.has("metrics-out"),
           "--trace/--json/--profile/--metrics-out flags apply to simulated "
           "runs, not gen");
  const graph::EdgeList g = load_graph(opts);
  const std::string output = opts.get("output", "");
  AG_CHECK(!output.empty(), "gen needs --output FILE");
  graph::write_dimacs_file(output, g, nullptr, "generated by archgraph_cli");
  std::cout << "wrote " << output << " (n=" << g.num_vertices()
            << ", m=" << g.num_edges() << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parse(argc, argv);
    if (opts.command == "cc") return run_cc(opts);
    if (opts.command == "rank") return run_rank(opts);
    if (opts.command == "color") return run_color(opts);
    if (opts.command == "bfs") return run_bfs(opts);
    if (opts.command == "gen") return run_gen(opts);
    if (opts.command == "--list" || opts.command == "list") return run_list();
    AG_CHECK(false, "unknown command '" + opts.command + "'");
  } catch (const std::exception& e) {
    std::cerr << "archgraph_cli: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
