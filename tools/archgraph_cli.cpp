// archgraph_cli — run the library's kernels on generated or DIMACS inputs
// from the command line, on the simulated machines.
//
// Usage (run with no arguments to print it):
//   archgraph_cli rank  --n N --layout ordered|random --seed S
//                       --algorithm walk|hj|wyllie|seq [RUN FLAGS]
//   archgraph_cli cc    --input FILE --random n,m,seed [RUN FLAGS]
//   archgraph_cli color --input FILE --random n,m,seed --branch-avoiding
//                       [RUN FLAGS]
//   archgraph_cli bfs   --input FILE --random n,m,seed [RUN FLAGS]
//   archgraph_cli gen   --input FILE --random n,m,seed --output FILE
//   archgraph_cli --list                       (kernels and machine presets)
//
// Every flag is optional except gen's --output; --input and --random
// (default 10000,40000,1) exclude each other. kCommands below is the one
// table that validates the flags and prints the usage: an unknown,
// inapplicable or repeated flag, or a malformed value, exits 1 naming it.
//
// RUN FLAGS (rank, cc, color and bfs):
//   --machine SPEC        a sim::parse_machine_spec preset ("mta", default;
//                         "smp"; "gpu") with optional ":key=value,..."
//                         overrides, e.g. mta:procs=40
//   --procs P             a procs=P override (default 4); a procs= inside
//                         SPEC wins over it
//   --trace FILE          write the phase/region JSONL event trace to FILE
//   --json                print the run-summary JSON document on stdout
//                         instead of the human-readable report
//   --profile             attach the interval profiler (summary in --json
//                         under "profile", brief table otherwise)
//   --profile-trace FILE  write a Chrome trace-event JSON (Perfetto) with
//                         counter tracks and phase spans; implies --profile
//   --profile-interval K  sampling period in simulated cycles (default 1024)
//   --metrics-out FILE    write the host-telemetry registry as OpenMetrics
//                         text (also in --json under "host_metrics")
//
// Every run is one sweep-registry kernel: the registry dispatches it and
// self-checks the answer against a sequential host reference.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/linked_list.hpp"
#include "obs/prof/prof.hpp"
#include "obs/telemetry/telemetry.hpp"
#include "obs/trace.hpp"
#include "sim/machine_spec.hpp"
#include "sweep/registry.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace archgraph;

/// One subcommand. `flags` is both its usage line and the table its flags
/// are validated against: "--name VALUE" takes a value, a bare "--name" is a
/// switch. `simulated` commands also take kRunFlags. `title` heads the human
/// report; `family` names the kernel variant (cc_sv_*, color_greedy_*,
/// bfs_tree_*; rank takes it from --algorithm).
struct Command {
  std::string name;
  std::string flags;
  bool simulated;
  std::string title;
  std::string family;
};

const std::string kRunFlags =
    "--machine SPEC --procs P --trace FILE --json --profile "
    "--profile-trace FILE --profile-interval K --metrics-out FILE";
const std::string kGraphFlags = "--input FILE --random n,m,seed";

const std::vector<Command> kCommands = {
    {"rank",
     "--n N --layout ordered|random --seed S --algorithm walk|hj|wyllie|seq",
     true, "list ranking", ""},
    {"cc", kGraphFlags, true, "connected components", "sv"},
    {"color", kGraphFlags + " --branch-avoiding", true, "greedy coloring",
     "greedy"},
    {"bfs", kGraphFlags, true, "BFS spanning forest", "tree"},
    {"gen", kGraphFlags + " --output FILE", false, "", ""},
    {"--list", "", false, "", ""},
};

/// The VALUE placeholder the usage line `flags` gives --`name` ("" for a
/// switch), or nullopt when it does not list the flag.
std::optional<std::string> placeholder(const std::string& flags,
                                       const std::string& name) {
  const std::string padded = " " + flags + " ";
  const usize at = padded.find(" --" + name + " ");
  if (at == std::string::npos || name.find(' ') != std::string::npos) {
    return std::nullopt;
  }
  const usize begin = at + name.size() + 4;  // just past " --name "
  if (begin == padded.size() || padded[begin] == '-') return "";
  return padded.substr(begin, padded.find(' ', begin) - begin);
}

std::string usage() {
  std::string text = "usage:\n";
  for (const Command& c : kCommands) {
    text += "  archgraph_cli " + c.name + (c.flags.empty() ? "" : " ") +
            c.flags + (c.simulated ? " [RUN FLAGS]\n" : "\n");
  }
  return text + "RUN FLAGS: " + kRunFlags;
}

struct Options {
  const Command* command = nullptr;
  std::map<std::string, std::string> named;

  bool is(const char* name) const { return command->name == name; }
  bool has(const std::string& key) const { return named.contains(key); }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = named.find(key);
    return it == named.end() ? fallback : it->second;
  }
  /// `positive` is for count-like flags (--procs): "--procs wants a positive
  /// integer, got '0'" instead of a machine-spec error from deep in the run.
  i64 get_int(const std::string& key, i64 fallback,
              bool positive = false) const {
    const auto it = named.find(key);
    if (it == named.end()) return fallback;
    return positive ? parse_positive_i64("--" + key, it->second)
                    : parse_i64("--" + key, it->second);
  }
};

Options parse(int argc, char** argv) {
  AG_CHECK(argc >= 2, usage());
  const std::string name = std::string(argv[1]) == "list" ? "--list" : argv[1];
  Options opts;
  for (const Command& c : kCommands) {
    if (c.name == name) opts.command = &c;
  }
  AG_CHECK(opts.command != nullptr,
           "unknown command '" + name + "'\n" + usage());
  const Command& command = *opts.command;
  const std::string flags =
      command.simulated ? command.flags + " " + kRunFlags : command.flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    AG_CHECK(arg.rfind("--", 0) == 0,
             "flags look like '--name value', got '" + arg + "'");
    const std::string key = arg.substr(2);
    const std::optional<std::string> value = placeholder(flags, key);
    AG_CHECK(value.has_value(), "unknown flag '" + arg + "' for " +
                                    command.name + "; valid: " + flags);
    AG_CHECK(!opts.has(key), "flag '" + arg + "' given twice");
    if (value->empty()) {
      opts.named[key] = "1";
      continue;
    }
    AG_CHECK(i + 1 < argc, "flag '" + arg + "' needs a value");
    const std::string given = argv[++i];
    // An "a|b|c" placeholder enumerates the accepted values.
    const bool listed = given.find('|') == std::string::npos &&
                        ("|" + *value + "|").find("|" + given + "|") !=
                            std::string::npos;
    AG_CHECK(value->find('|') == std::string::npos || listed,
             arg + " wants " + *value + ", got '" + given + "'");
    opts.named[key] = given;
  }
  AG_CHECK(!(opts.has("input") && opts.has("random")),
           "--input and --random are mutually exclusive");
  return opts;
}

graph::EdgeList load_graph(const Options& opts) {
  if (opts.has("input")) {
    return graph::read_dimacs_file(opts.get("input", "")).edges;
  }
  const std::string spec = opts.get("random", "10000,40000,1");
  const usize c1 = spec.find(',');
  const usize c2 = c1 == std::string::npos ? c1 : spec.find(',', c1 + 1);
  AG_CHECK(c2 != std::string::npos,
           "--random wants n,m,seed, got '" + spec + "'");
  const i64 n = parse_i64("--random n", spec.substr(0, c1));
  const i64 m = parse_i64("--random m", spec.substr(c1 + 1, c2 - c1 - 1));
  const u64 seed = parse_u64("--random seed", spec.substr(c2 + 1));
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
      const i64 interval = opts.get_int("profile-interval", 1024, true);
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
/// `host_seconds` is the host wall-clock the kernel run and its self-check
/// took — the one number host telemetry has that the simulated counters
/// don't.
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
                 "Host wall-clock of the simulated kernel run "
                 "(simulate + verify)",
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

/// The value the run added to session counter `name` (0 if none).
i64 counter_value(const obs::TraceSession& session, const std::string& name) {
  for (const auto& [key, value] : session.counters()) {
    if (key == name) return value;
  }
  return 0;
}

/// rank, cc, color and bfs: one sweep-registry kernel on one machine, traced.
int run_simulated(const Options& opts) {
  const std::string machine = opts.get("machine", "mta");
  const auto procs = static_cast<u32>(opts.get_int("procs", 4, true));
  const bool json = opts.has("json");

  sweep::KernelInput input;
  std::string variant = opts.command->family;
  std::ostringstream banner;
  banner << opts.command->title << ": ";
  if (opts.is("rank")) {
    variant = opts.get("algorithm", "hj");
    const i64 n = opts.get_int("n", 1 << 20);
    const sweep::Layout layout =
        sweep::parse_layout(opts.get("layout", "random"));
    input.list =
        layout == sweep::Layout::kOrdered
            ? graph::ordered_list(n)
            : graph::random_list(n, static_cast<u64>(opts.get_int("seed", 1)));
    banner << "n=" << n << " layout=" << sweep::layout_name(layout)
           << " algorithm=" << variant;
  } else {
    input.graph = load_graph(opts);
    banner << "n=" << input.graph.num_vertices()
           << " m=" << input.graph.num_edges();
  }
  if (opts.is("color")) {
    banner << " variant="
           << (opts.has("branch-avoiding") ? "branch-avoiding" : "branchy");
  }
  // The composed spec's count: a procs= inside --machine overrides --procs.
  const sim::MachineSpec spec = parse_machine_opt(machine, procs);
  if (!json) {
    std::cout << banner.str() << " machine=" << machine
              << " p=" << spec.processors() << '\n';
  }

  const std::string arch = sim::arch_name(spec.arch);
  // The graph kernels run their SMP-shaped variant on an smp machine and the
  // machine-neutral _mta one elsewhere (full/empty bits work on any
  // sim::Machine); only the SMP variants carry cache-conscious layouts.
  std::string kernel_name =
      (opts.is("rank") ? "lr" : opts.command->name) + "_" + variant;
  if (!opts.is("rank")) {
    kernel_name += spec.arch == sim::MachineArch::kSmp ? "_smp" : "_mta";
  }
  if (opts.has("branch-avoiding")) kernel_name += "_ba";
  const sweep::KernelInfo& kernel = sweep::find_kernel(kernel_name);

  // Built before the sessions so it outlives them: their destructors detach.
  std::unique_ptr<sim::Machine> m = sim::make_machine(spec);
  obs::TraceSession session(opts.command->name + "/" + variant + "/" + arch);
  obs::TraceSession::Install install(session);
  Profiling prof = Profiling::from_options(opts);
  session.attach(*m, arch);
  prof.attach(*m, arch);
  Timer host_timer;
  // Throws on a failed self-check; adds the answer counters read below.
  const sweep::KernelRun run = kernel.run(*m, input, /*verify=*/true);
  const double host_seconds = host_timer.seconds();
  finish_simulated(session, *m, prof, opts, host_seconds);
  if (json) return 0;
  if (opts.is("rank")) {
    std::cout << "verified against the sequential ranking\n";
  } else if (opts.is("cc")) {
    std::cout << "components:    " << counter_value(session, "cc.components")
              << " (verified against union-find)\n";
  } else if (opts.is("color")) {
    std::cout << "colors:        " << counter_value(session, "color.palette")
              << " (verified proper, == sequential greedy)\n"
              << "rounds:        " << run.iterations << '\n';
  } else {
    std::cout << "components:    " << counter_value(session, "bfs.components")
              << " (verified BFS forest, exact levels)\n"
              << "max depth:     " << counter_value(session, "bfs.depth")
              << '\n'
              << "rounds:        " << run.iterations << '\n';
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
    if (opts.command->simulated) return run_simulated(opts);
    if (opts.is("gen")) return run_gen(opts);
    return run_list();
  } catch (const std::exception& e) {
    std::cerr << "archgraph_cli: " << e.what() << '\n';
    return 1;
  }
}
