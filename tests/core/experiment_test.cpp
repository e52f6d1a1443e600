#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "core/kernels/kernels.hpp"
#include "graph/linked_list.hpp"
#include "sim/machine_spec.hpp"

namespace archgraph::core {
namespace {

TEST(ExperimentConfigs, MatchPaperMachineDescriptions) {
  // The "mta" and "smp" spec presets are the paper's §2.2 Cray MTA-2 and
  // §2.1 Sun E4500.
  const sim::MtaConfig mta = sim::parse_machine_spec("mta:procs=8").mta;
  EXPECT_EQ(mta.processors, 8u);
  EXPECT_EQ(mta.streams_per_processor, 128u);
  EXPECT_NEAR(mta.memory_latency, 100, 50);
  EXPECT_DOUBLE_EQ(mta.clock_hz, 220e6);
  EXPECT_TRUE(mta.hash_addresses);

  const sim::SmpConfig smp = sim::parse_machine_spec("smp:procs=8").smp;
  EXPECT_EQ(smp.processors, 8u);
  EXPECT_EQ(smp.l1_bytes, 16u * 1024);
  EXPECT_EQ(smp.l1_ways, 1u);  // direct-mapped
  EXPECT_EQ(smp.l2_bytes, 4u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(smp.clock_hz, 400e6);
  EXPECT_GE(smp.memory_latency, 100);  // "hundreds of cycles"
}

TEST(Snapshot, CapturesMachineState) {
  const auto mp = sim::make_machine("mta:procs=2");
  sim::Machine& m = *mp;
  sim_rank_list_walk(m, graph::random_list(2048, 1));
  const Measurement meas = snapshot(m);
  EXPECT_EQ(meas.cycles, m.cycles());
  EXPECT_EQ(meas.processors, 2u);
  EXPECT_GT(meas.seconds, 0.0);
  EXPECT_NEAR(meas.seconds, static_cast<double>(meas.cycles) / 220e6, 1e-12);
  EXPECT_GT(meas.utilization, 0.0);
  EXPECT_LE(meas.utilization, 1.0);
  EXPECT_GT(meas.stats.instructions, 0);
}

TEST(Snapshot, ResetStatsClearsAccumulation) {
  const auto m = sim::make_machine("mta");
  sim_rank_list_walk(*m, graph::random_list(512, 2));
  EXPECT_GT(m->cycles(), 0);
  m->reset_stats();
  EXPECT_EQ(m->cycles(), 0);
  EXPECT_EQ(m->stats().instructions, 0);
}

}  // namespace
}  // namespace archgraph::core
