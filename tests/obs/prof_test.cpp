// Interval-profiler contract tests.
//
// The load-bearing guarantee is the first suite: attaching a ProfSession is
// read-only — simulated cycles, instructions and memory-system counters are
// identical with and without the profiler, on both machine models. The rest
// covers the timeline (interval sampling, bounded compaction), memory-access
// attribution (labeled ranges, heatmaps, the ordered-vs-random miss-rate gap
// that reproduces Figure 1's cause), and the two export formats.
#include "obs/prof/prof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "core/listrank/listrank.hpp"
#include "graph/generators.hpp"
#include "graph/linked_list.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/machine_spec.hpp"

namespace archgraph::obs::prof {
namespace {

struct Counters {
  sim::Cycle cycles = 0;
  i64 instructions = 0;
  i64 mem_fills = 0;
  i64 memory_ops = 0;
};

/// Runs the canonical list-ranking kernel for `spec`'s architecture and
/// returns the headline counters; with `profile` set the run happens under
/// an attached ProfSession.
Counters run_rank(const std::string& spec, const graph::LinkedList& list,
                  bool profile) {
  const auto machine = sim::make_machine(spec);
  ProfSession session(/*interval=*/256);
  if (profile) {
    session.attach(*machine, "test");
  }
  const bool mta = spec.rfind("mta", 0) == 0;
  const std::vector<i64> ranks = mta ? core::sim_rank_list_walk(*machine, list)
                                     : core::sim_rank_list_hj(*machine, list);
  EXPECT_EQ(ranks, core::rank_sequential(list));
  const sim::MachineStats& stats = machine->stats();
  return {machine->cycles(), stats.instructions, stats.mem_fills,
          stats.memory_ops};
}

TEST(ProfDeterminism, AttachedProfilerDoesNotPerturbMta) {
  const graph::LinkedList list = graph::random_list(4096, 7);
  const Counters off = run_rank("mta:procs=2", list, false);
  const Counters on = run_rank("mta:procs=2", list, true);
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(off.instructions, on.instructions);
  EXPECT_EQ(off.memory_ops, on.memory_ops);
  EXPECT_EQ(off.mem_fills, on.mem_fills);
}

TEST(ProfDeterminism, AttachedProfilerDoesNotPerturbMtaAtWidth) {
  // Four processors issue in the same cycles, so the profiled instantiation
  // of the MTA's issue loop must keep the same-cycle order too.
  const graph::LinkedList list = graph::random_list(4096, 7);
  const Counters off = run_rank("mta:procs=4", list, false);
  const Counters on = run_rank("mta:procs=4", list, true);
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(off.instructions, on.instructions);
  EXPECT_EQ(off.memory_ops, on.memory_ops);
}

TEST(ProfDeterminism, AttachedProfilerDoesNotPerturbSmp) {
  const graph::LinkedList list = graph::random_list(4096, 7);
  const Counters off = run_rank("smp:procs=2,l2_kb=64", list, false);
  const Counters on = run_rank("smp:procs=2,l2_kb=64", list, true);
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(off.instructions, on.instructions);
  EXPECT_EQ(off.memory_ops, on.memory_ops);
  EXPECT_EQ(off.mem_fills, on.mem_fills);
}

TEST(ProfTimeline, SamplesAtIntervalBoundariesWithAlignedSeries) {
  const auto machine = sim::make_machine("mta:procs=2");
  ProfSession session(/*interval=*/128);
  session.attach(*machine, "mta");
  const graph::LinkedList list = graph::random_list(2048, 3);
  core::sim_rank_list_walk(*machine, list);
  session.detach();

  const std::vector<sim::Cycle>& times = session.sample_times();
  ASSERT_GE(times.size(), 4u);
  for (usize i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i - 1], times[i]) << "timeline must strictly increase";
  }
  ASSERT_FALSE(session.series().empty());
  for (const SeriesProfile& s : session.series()) {
    EXPECT_EQ(s.values.size(), times.size()) << s.name;
  }
  // The leading series is cumulative instructions: non-decreasing and ending
  // at the machine's final count.
  const SeriesProfile& instr = session.series().front();
  EXPECT_EQ(instr.name, "instructions");
  EXPECT_TRUE(instr.cumulative);
  EXPECT_TRUE(std::is_sorted(instr.values.begin(), instr.values.end()));
  EXPECT_EQ(instr.values.back(), machine->stats().instructions);
}

TEST(ProfTimeline, CompactionBoundsMemoryAndDoublesInterval) {
  const auto machine = sim::make_machine("mta:procs=1");
  ProfSession session(/*interval=*/16, /*capacity=*/32);
  session.attach(*machine, "mta");
  const graph::LinkedList list = graph::random_list(4096, 5);
  core::sim_rank_list_walk(*machine, list);
  session.detach();

  EXPECT_LT(session.sample_times().size(), 32u);
  EXPECT_GT(session.interval(), 16) << "compaction must double the interval";
  // The run is long enough that a 16-cycle interval without compaction would
  // have blown far past the capacity.
  EXPECT_GT(machine->cycles(), 32 * 16);
}

TEST(ProfTimeline, CompactionReAnchorsTheSamplingGrid) {
  const auto machine = sim::make_machine("mta:procs=1");
  ProfSession session(/*interval=*/16, /*capacity=*/16);
  session.attach(*machine, "mta");
  // Drive the hook directly: one region-begin anchor, then enough simulated
  // cycles to force several compactions.
  session.on_prof_region_begin(*machine);
  session.on_advance(*machine, 16 * 64);
  const std::vector<sim::Cycle>& times = session.sample_times();
  session.detach();
  ASSERT_GE(times.size(), 3u);
  EXPECT_GT(session.interval(), 16) << "the run must have compacted";
  // Each compaction must re-anchor next_sample_ on the doubled grid, so the
  // whole exported timeline stays uniformly spaced at the final interval.
  for (usize i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], session.interval())
        << "sample spacing drifted off the final grid at i=" << i;
  }
}

TEST(ProfTimeline, GaugeSamplingBetweenRegionsReadsNoFreedThreads) {
  const auto machine = sim::make_machine("mta:procs=2");
  // Small capacity forces compaction, the path that historically let a
  // region-begin sample through while the thread table still held pointers
  // into the previous region's freed thread vector.
  ProfSession session(/*interval=*/64, /*capacity=*/16);
  session.attach(*machine, "mta");
  const graph::LinkedList list = graph::random_list(2048, 3);
  core::sim_rank_list_walk(*machine, list);  // multi-region kernel
  // Between regions (what region N+1's begin sample sees) the machine must
  // report an idle state from cleared tables, not dereference freed threads.
  const usize gauges = machine->prof_gauge_info().size();
  std::vector<i64> buf(gauges, -1);
  machine->sample_prof_gauges(buf.data());
  session.detach();
  ASSERT_GE(gauges, 3u);
  EXPECT_EQ(buf[gauges - 3], 0);  // streams_ready
  EXPECT_EQ(buf[gauges - 2], 0);  // streams_blocked
  EXPECT_EQ(buf[gauges - 1], 0);  // mem_outstanding
}

TEST(ProfTimeline, MachineGaugesAreRegistered) {
  const auto mta = sim::make_machine("mta:procs=2");
  ProfSession mta_session;
  mta_session.attach(*mta, "mta");
  std::vector<std::string> names;
  for (const SeriesProfile& s : mta_session.series()) names.push_back(s.name);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "p0.issued"));
  EXPECT_TRUE(std::count(names.begin(), names.end(), "streams_ready"));
  EXPECT_TRUE(std::count(names.begin(), names.end(), "mem_outstanding"));

  const auto smp = sim::make_machine("smp:procs=2");
  ProfSession smp_session;
  smp_session.attach(*smp, "smp");
  names.clear();
  for (const SeriesProfile& s : smp_session.series()) names.push_back(s.name);
  EXPECT_TRUE(std::count(names.begin(), names.end(), "p0.barrier_wait"));
  EXPECT_TRUE(std::count(names.begin(), names.end(), "barrier_parked"));
}

const RangeProfile* find_range(const std::vector<RangeProfile>& ranges,
                               const std::string& name) {
  for (const RangeProfile& r : ranges) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

/// The result points into `ranges`, so a temporary (e.g. a direct
/// session.range_profiles() call) would leave it dangling.
const RangeProfile* find_range(std::vector<RangeProfile>&& ranges,
                               const std::string& name) = delete;

TEST(ProfAttribution, ResolvesAccessesToLabeledRanges) {
  const auto machine = sim::make_machine("smp:procs=2,l2_kb=64");
  ProfSession session;
  ProfSession::Install install(session);
  session.attach(*machine, "smp");
  const graph::LinkedList list = graph::random_list(4096, 11);
  core::sim_rank_list_hj(*machine, list);
  session.detach();

  const std::vector<RangeProfile> ranges = session.range_profiles();
  const RangeProfile* succ = find_range(ranges, "succ");
  ASSERT_NE(succ, nullptr);
  EXPECT_EQ(succ->words, 4096);
  // Steps 1 and 3 both read every successor slot exactly once.
  EXPECT_EQ(succ->reads, 2 * 4096);
  EXPECT_EQ(succ->writes, 0);
  // Every SMP access is classified: hits + fills account for all of them.
  EXPECT_EQ(succ->l1_hits + succ->l2_hits + succ->mem_fills,
            succ->accesses());
  // The heatmap buckets partition the range's accesses.
  i64 heat_total = 0;
  for (const i64 h : succ->heat) heat_total += h;
  EXPECT_EQ(heat_total, succ->accesses());
  ASSERT_EQ(succ->heat.size(), static_cast<usize>(kHeatBuckets));
  // rank is written once per node in step 5.
  const RangeProfile* rank = find_range(ranges, "rank");
  ASSERT_NE(rank, nullptr);
  EXPECT_EQ(rank->writes, 4096);
}

TEST(ProfAttribution, RelabelSameBaseWithNewLengthResizesInPlace) {
  const auto machine = sim::make_machine("mta:procs=1");
  ProfSession session;
  session.attach(*machine, "mta");
  session.label_range("whole", sim::Addr{1000}, 64);
  // Relabeling the same base with a different length must resize the range
  // in place — not insert a second overlapping range that shadows it.
  session.label_range("half", sim::Addr{1000}, 32);
  session.label_range("tail", sim::Addr{1032}, 32);
  session.on_access(sim::Addr{1010}, sim::AccessClass::kMemRef, false);
  session.on_access(sim::Addr{1040}, sim::AccessClass::kMemRef, true);
  session.detach();
  const std::vector<RangeProfile> ranges = session.range_profiles();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].name, "half");
  EXPECT_EQ(ranges[0].words, 32);
  EXPECT_EQ(ranges[0].reads, 1);
  i64 heat_total = 0;
  for (const i64 h : ranges[0].heat) heat_total += h;
  EXPECT_EQ(heat_total, 1) << "the resized range's heatmap restarts";
  EXPECT_EQ(ranges[1].name, "tail");
  EXPECT_EQ(ranges[1].writes, 1);
}

TEST(ProfAttribution, UnlabeledAccessesFallIntoCatchAll) {
  const auto machine = sim::make_machine("mta:procs=1");
  ProfSession session;
  // No Install: the kernel's ambient label_range() calls are no-ops, so
  // every access lands in "(unlabeled)".
  session.attach(*machine, "mta");
  const graph::LinkedList list = graph::ordered_list(256);
  core::sim_rank_list_walk(*machine, list);
  session.detach();

  const std::vector<RangeProfile> ranges = session.range_profiles();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges.front().name, "(unlabeled)");
  EXPECT_GT(ranges.front().accesses(), 0);
}

/// The paper's Figure 1 cause, attributed: on the cache-based SMP the
/// pointer-chased successor array misses far more often on a random layout
/// than an ordered one; on the MTA there is no cache to miss and the
/// attribution shows bank references instead.
TEST(ProfAttribution, SuccMissRateSeparatesRandomFromOrderedOnSmp) {
  const auto miss_rate = [](const graph::LinkedList& list) {
    const auto machine = sim::make_machine("smp:procs=1,l2_kb=64");
    ProfSession session;
    ProfSession::Install install(session);
    session.attach(*machine, "smp");
    core::sim_rank_list_hj(*machine, list);
    session.detach();
    const std::vector<RangeProfile> ranges = session.range_profiles();
    const RangeProfile* succ = find_range(ranges, "succ");
    EXPECT_NE(succ, nullptr);
    return succ != nullptr ? succ->miss_rate() : -1.0;
  };
  const double ordered = miss_rate(graph::ordered_list(1 << 15));
  const double random = miss_rate(graph::random_list(1 << 15, 13));
  ASSERT_GE(ordered, 0.0);
  ASSERT_GE(random, 0.0);
  EXPECT_GT(random, 3.0 * ordered)
      << "random-layout succ misses must dominate (ordered=" << ordered
      << ", random=" << random << ")";
}

TEST(ProfAttribution, MtaTrafficIsBankReferencesNotCacheEvents) {
  const auto machine = sim::make_machine("mta:procs=2");
  ProfSession session;
  ProfSession::Install install(session);
  session.attach(*machine, "mta");
  const graph::LinkedList list = graph::random_list(1024, 3);
  core::sim_rank_list_walk(*machine, list);
  session.detach();

  const std::vector<RangeProfile> ranges = session.range_profiles();
  const RangeProfile* succ = find_range(ranges, "succ");
  ASSERT_NE(succ, nullptr);
  EXPECT_GT(succ->mem_refs, 0);
  EXPECT_EQ(succ->l1_hits + succ->l2_hits + succ->mem_fills, 0);
  EXPECT_LT(succ->miss_rate(), 0.0) << "no cache => no miss rate";
  // The walk kernel claims chunks with int_fetch_add on its shared counter.
  const RangeProfile* counter = find_range(ranges, "walk.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_GT(counter->rmws, 0);
}

TEST(ProfExport, ProfileJsonIsValidAndCarriesRegionsAndSeries) {
  const auto machine = sim::make_machine("smp:procs=2,l2_kb=64");
  ProfSession session;
  ProfSession::Install install(session);
  session.attach(*machine, "smp");
  const graph::LinkedList list = graph::random_list(2048, 9);
  core::sim_rank_list_hj(*machine, list);
  session.detach();

  const std::string json = session.profile_json();
  std::string error;
  ASSERT_TRUE(json_is_valid(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(json_parse(json, &doc, &error)) << error;
  EXPECT_EQ(doc.find("machine")->as_string(), "smp");
  EXPECT_GT(doc.find("samples")->as_i64(), 0);
  EXPECT_FALSE(doc.find("series")->items().empty());
  const JsonValue* regions = doc.find("regions");
  ASSERT_NE(regions, nullptr);
  bool found_succ = false;
  for (const JsonValue& r : regions->items()) {
    if (r.find("name")->as_string() == "succ") {
      found_succ = true;
      EXPECT_TRUE(r.find("miss_rate")->is_number());
      EXPECT_EQ(r.find("heat")->items().size(),
                static_cast<usize>(kHeatBuckets));
    }
  }
  EXPECT_TRUE(found_succ);
}

TEST(ProfExport, ChromeTraceIsValidWithCounterTracksAndSpans) {
  const auto machine = sim::make_machine("mta:procs=2");
  TraceSession trace("prof-test");
  TraceSession::Install trace_install(trace);
  ProfSession session;
  ProfSession::Install install(session);
  trace.attach(*machine, "mta");
  session.attach(*machine, "mta");
  const graph::LinkedList list = graph::random_list(2048, 17);
  core::sim_rank_list_walk(*machine, list);
  session.detach();

  const std::string json = session.chrome_trace_json(&trace);
  std::string error;
  ASSERT_TRUE(json_is_valid(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(json_parse(json, &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  usize counters = 0;
  usize spans = 0;
  bool utilization_track = false;
  for (const JsonValue& e : events->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "C") {
      ++counters;
      if (e.find("name")->as_string() == "utilization") {
        utilization_track = true;
      }
    }
    if (ph == "X") ++spans;
  }
  EXPECT_GT(counters, 0u);
  EXPECT_GT(spans, 0u) << "trace spans must be exported as complete events";
  EXPECT_TRUE(utilization_track);
  // The compact summary rides along for tooling.
  EXPECT_NE(doc.find("archgraph_profile"), nullptr);
}

TEST(ProfExport, ProfileJsonCarriesCycleAccounting) {
  const auto machine = sim::make_machine("mta:procs=2");
  ProfSession session;
  ProfSession::Install install(session);
  session.attach(*machine, "mta");
  const graph::LinkedList list = graph::random_list(2048, 5);
  core::sim_rank_list_walk(*machine, list);
  session.detach();

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(session.profile_json(), &doc, &error)) << error;
  const JsonValue* acct = doc.find("cycle_accounting");
  ASSERT_NE(acct, nullptr);
  const i64 slots = acct->find("slots")->as_i64();
  EXPECT_EQ(slots, acct->find("processors")->as_i64() *
                       acct->find("cycles")->as_i64());
  i64 category_sum = 0;
  for (const auto& [name, v] : acct->find("categories")->members()) {
    category_sum += v.as_i64();
  }
  EXPECT_EQ(category_sum, slots);
  EXPECT_GT(acct->find("categories")->find("issued")->as_i64(), 0);
}

TEST(ProfExport, ChromeTraceStacksCycleAccountingDeltas) {
  const auto machine = sim::make_machine("mta:procs=2");
  ProfSession session;
  ProfSession::Install install(session);
  session.attach(*machine, "mta");
  const graph::LinkedList list = graph::random_list(4096, 13);
  core::sim_rank_list_walk(*machine, list);
  session.detach();

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(session.chrome_trace_json(), &doc, &error)) << error;
  usize stacked = 0;
  std::map<std::string, i64> delta_sums;
  for (const JsonValue& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "C") continue;
    const std::string name = e.find("name")->as_string();
    // The per-category series ride only in the stacked track — no flat
    // "acct.issued" counter rows next to it.
    EXPECT_NE(name.rfind("acct.", 0), 0u) << name;
    if (name != "cycle_accounting") continue;
    ++stacked;
    for (const auto& [cat, v] : e.find("args")->members()) {
      delta_sums[cat] += v.as_i64();
    }
  }
  EXPECT_GT(stacked, 1u) << "stacked accounting track missing";
  // Interval deltas accumulate back to the final breakdown of each live
  // category (the profiler samples through the very end of the run).
  const JsonValue* acct = doc.find("archgraph_profile")->find(
      "cycle_accounting");
  ASSERT_NE(acct, nullptr);
  for (const auto& [cat, total] : acct->find("categories")->members()) {
    if (total.as_i64() == 0) continue;
    EXPECT_EQ(delta_sums[cat], total.as_i64()) << cat;
  }
}

TEST(ProfAmbient, LabelRangeWithoutSessionIsANoOp) {
  // Must not crash or leak state; current() stays null.
  label_range("nothing", sim::Addr{0}, 128);
  EXPECT_EQ(ProfSession::current(), nullptr);
}

TEST(ProfAmbient, InstallNestsAndRestores) {
  ProfSession outer;
  ProfSession::Install a(outer);
  EXPECT_EQ(ProfSession::current(), &outer);
  {
    ProfSession inner;
    ProfSession::Install b(inner);
    EXPECT_EQ(ProfSession::current(), &inner);
  }
  EXPECT_EQ(ProfSession::current(), &outer);
}

TEST(ProfUtil, SparklineScalesToBlocks) {
  EXPECT_EQ(sparkline({}), "");
  const std::string flat = sparkline({1.0, 1.0, 1.0});
  EXPECT_EQ(flat, "▁▁▁");  // degenerate range maps to the lowest block
  const std::string ramp = sparkline({0.0, 1.0});
  EXPECT_EQ(ramp, "▁█");
}

}  // namespace
}  // namespace archgraph::obs::prof
