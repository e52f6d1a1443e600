#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/table.hpp"
#include "obs/json.hpp"
#include "sweep/spec.hpp"

namespace archgraph::bench {
namespace {

/// Sets an environment variable for one test, restoring the old value after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Table sample_table() {
  Table t({"x", "y"});
  t.row().add(1).add(2);
  return t;
}

TEST(ScaleFromEnv, ParsesTheThreeScales) {
  {
    ScopedEnv env("ARCHGRAPH_BENCH_SCALE", nullptr);
    EXPECT_EQ(scale_from_env(), Scale::kDefault);
  }
  {
    ScopedEnv env("ARCHGRAPH_BENCH_SCALE", "quick");
    EXPECT_EQ(scale_from_env(), Scale::kQuick);
  }
  {
    ScopedEnv env("ARCHGRAPH_BENCH_SCALE", "full");
    EXPECT_EQ(scale_from_env(), Scale::kFull);
  }
  {
    ScopedEnv env("ARCHGRAPH_BENCH_SCALE", "default");
    EXPECT_EQ(scale_from_env(), Scale::kDefault);
  }
  {
    ScopedEnv env("ARCHGRAPH_BENCH_SCALE", "");
    EXPECT_EQ(scale_from_env(), Scale::kDefault);
  }
}

TEST(ScaleFromEnv, RejectsUnknownScale) {
  for (const char* bad : {"qiuck", "Quick", "full ", "1"}) {
    ScopedEnv env("ARCHGRAPH_BENCH_SCALE", bad);
    try {
      scale_from_env();
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + std::string{bad} + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("quick|default|full"), std::string::npos) << what;
    }
  }
}

TEST(MaybeWriteCsv, NoOpWhenEnvUnset) {
  ScopedEnv env("ARCHGRAPH_BENCH_CSV", nullptr);
  EXPECT_TRUE(maybe_write_csv(sample_table(), "unset_case"));
}

TEST(MaybeWriteCsv, WritesTheTable) {
  const std::string dir = testing::TempDir();
  ScopedEnv env("ARCHGRAPH_BENCH_CSV", dir.c_str());
  ASSERT_TRUE(maybe_write_csv(sample_table(), "bench_util_test"));
  const std::string content = slurp(dir + "/bench_util_test.csv");
  EXPECT_NE(content.find("x"), std::string::npos);
  EXPECT_NE(content.find("1"), std::string::npos);
}

TEST(MaybeWriteCsv, ReportsFailureForUnwritableDirectory) {
  ScopedEnv env("ARCHGRAPH_BENCH_CSV", "/nonexistent-dir/sub");
  EXPECT_FALSE(maybe_write_csv(sample_table(), "doomed"));
}

TEST(BenchJson, InactiveWithoutEnv) {
  ScopedEnv env("ARCHGRAPH_BENCH_JSON", nullptr);
  BenchJson bj("inactive_case");
  EXPECT_FALSE(bj.active());
  bj.record([](obs::JsonWriter& w) { w.field("n", i64{1}); });
  EXPECT_EQ(bj.num_records(), 0u);
  EXPECT_FALSE(bj.write());
}

TEST(BenchJson, WritesValidDocumentWithRecords) {
  const std::string dir = testing::TempDir();
  ScopedEnv env("ARCHGRAPH_BENCH_JSON", dir.c_str());
  BenchJson bj("bench_util_test");
  ASSERT_TRUE(bj.active());
  bj.record([](obs::JsonWriter& w) {
    w.field("n", i64{64}).field("machine", "mta");
  });
  bj.record([](obs::JsonWriter& w) {
    w.field("n", i64{128}).field("machine", "smp");
  });
  EXPECT_EQ(bj.num_records(), 2u);
  ASSERT_TRUE(bj.write());
  EXPECT_TRUE(bj.write());  // idempotent

  const std::string content = slurp(dir + "/BENCH_bench_util_test.json");
  std::string error;
  EXPECT_TRUE(obs::json_is_valid(content, &error)) << error;
  EXPECT_EQ(
      content.find(
          R"({"bench":"bench_util_test","schema_version":1,"records":[)"),
      0u);
  EXPECT_NE(content.find(R"("machine":"smp")"), std::string::npos);
}

TEST(BenchJson, ReportsFailureForUnwritableDirectory) {
  ScopedEnv env("ARCHGRAPH_BENCH_JSON", "/nonexistent-dir/sub");
  BenchJson bj("doomed");
  EXPECT_TRUE(bj.active());
  bj.record([](obs::JsonWriter& w) { w.field("n", i64{1}); });
  EXPECT_FALSE(bj.write());
  EXPECT_FALSE(bj.write());  // failure is sticky, not retried
}

TEST(BraceList, SingleValueHasNoBraces) {
  EXPECT_EQ(brace_list({42}), "42");
  EXPECT_EQ(brace_list({1, 2, 8}), "{1,2,8}");
}

TEST(CannedSweeps, EveryNameResolvesAndParses) {
  for (const std::string& name : canned_sweep_names()) {
    const std::vector<std::string> specs = canned_sweep(name, Scale::kQuick);
    ASSERT_FALSE(specs.empty()) << name;
    for (const std::string& text : specs) {
      EXPECT_NO_THROW(sweep::parse_sweep_spec(text)) << name << ": " << text;
    }
  }
  EXPECT_TRUE(canned_sweep("nope", Scale::kQuick).empty());
}

TEST(CannedSweeps, QuickGridCellCounts) {
  // fig1: 2 kernels x 4 procs x 2 layouts x 2 sizes.
  EXPECT_EQ(sweep::expand_all(fig1_sweep_specs(Scale::kQuick)).cells.size(),
            32u);
  // fig2: 3 machine thirds x 4 procs x 3 edge counts.
  EXPECT_EQ(sweep::expand_all(fig2_sweep_specs(Scale::kQuick)).cells.size(),
            36u);
  // table1: 3 workloads x 3 procs.
  EXPECT_EQ(sweep::expand_all(table1_sweep_specs(Scale::kQuick)).cells.size(),
            9u);
  EXPECT_EQ(sweep::expand_all(ci_sweep_specs()).cells.size(), 2u);
  // gpu gate: 4 graph kernels + lr_walk, all on gpu:procs=2.
  EXPECT_EQ(sweep::expand_all(gpu_sweep_specs()).cells.size(), 5u);
  // kernels gate: 3 machines x (4 list kernels x 2 layouts + 9 graph kernels).
  EXPECT_EQ(sweep::expand_all(kernels_sweep_specs()).cells.size(), 51u);
}

TEST(CannedSweeps, Fig1CarriesTheScaledL2AndBothLayouts) {
  const std::vector<std::string> specs = fig1_sweep_specs(Scale::kQuick);
  const sweep::SweepSpec smp = sweep::parse_sweep_spec(specs[1]);
  ASSERT_EQ(smp.machines.size(), 4u);
  EXPECT_EQ(smp.machines[0], "smp:l2_kb=512");  // canonical: procs=1 omitted
  EXPECT_EQ(smp.machines[3], "smp:procs=8,l2_kb=512");
  EXPECT_EQ(smp.layouts.size(), 2u);
}

}  // namespace
}  // namespace archgraph::bench
