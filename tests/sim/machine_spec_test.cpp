// Machine-spec grammar: parse round-trips, override composition, rejection
// diagnostics, and the make_machine factory.
#include "sim/machine_spec.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace archgraph::sim {
namespace {

// EXPECT_THROW plus a check that the diagnostic names what went wrong.
template <typename F>
std::string message_of(F&& f) {
  try {
    f();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::logic_error";
  return {};
}

TEST(MachineSpec, PresetsAreThePaperDefaults) {
  const MachineSpec mta = parse_machine_spec("mta");
  EXPECT_EQ(mta.arch, MachineArch::kMta);
  EXPECT_EQ(mta.mta, MtaConfig{});
  EXPECT_EQ(mta.processors(), 1u);

  const MachineSpec smp = parse_machine_spec("smp");
  EXPECT_EQ(smp.arch, MachineArch::kSmp);
  EXPECT_EQ(smp.smp, SmpConfig{});
  EXPECT_DOUBLE_EQ(smp.smp.clock_hz, 400e6);

  const MachineSpec gpu = parse_machine_spec("gpu");
  EXPECT_EQ(gpu.arch, MachineArch::kGpu);
  EXPECT_EQ(gpu.gpu, GpuConfig{});
  EXPECT_EQ(gpu.processors(), 1u);
}

TEST(MachineSpec, OverridesApplyToNamedFields) {
  const MachineSpec s = parse_machine_spec("mta:procs=40,streams=64,hash=off");
  EXPECT_EQ(s.mta.processors, 40u);
  EXPECT_EQ(s.mta.streams_per_processor, 64u);
  EXPECT_FALSE(s.mta.hash_addresses);
  // Untouched fields keep the preset defaults.
  EXPECT_EQ(s.mta.memory_latency, MtaConfig{}.memory_latency);

  const MachineSpec t = parse_machine_spec(
      "smp:procs=14,l2_kb=4096,line=128,latency=260");
  EXPECT_EQ(t.smp.processors, 14u);
  EXPECT_EQ(t.smp.l2_bytes, 4096u * 1024);
  EXPECT_EQ(t.smp.line_bytes, 128u);
  EXPECT_EQ(t.smp.memory_latency, 260);

  const MachineSpec g = parse_machine_spec(
      "gpu:procs=4,warps=16,warp_width=16,lat_mem=400,mem_seg_bytes=64,"
      "smem_banks=16,lat_smem=30");
  EXPECT_EQ(g.gpu.processors, 4u);
  EXPECT_EQ(g.gpu.warps_per_processor, 16u);
  EXPECT_EQ(g.gpu.warp_width, 16u);
  EXPECT_EQ(g.gpu.memory_latency, 400);
  EXPECT_EQ(g.gpu.mem_seg_bytes, 64u);
  EXPECT_EQ(g.gpu.smem_banks, 16u);
  EXPECT_EQ(g.gpu.smem_latency, 30);
  // Untouched fields keep the preset defaults.
  EXPECT_EQ(g.gpu.smem_words, GpuConfig{}.smem_words);
}

TEST(MachineSpec, FractionalKbAndClockMhzScale) {
  const MachineSpec s = parse_machine_spec("smp:l1_kb=0.0625,clock_mhz=450");
  EXPECT_EQ(s.smp.l1_bytes, 64u);  // 0.0625 KB = 64 B
  EXPECT_DOUBLE_EQ(s.smp.clock_hz, 450e6);
}

TEST(MachineSpec, LaterDuplicateKeysWin) {
  // The CLI composes "--procs" defaults with user overrides by appending, so
  // duplicates must apply in order.
  const MachineSpec s = parse_machine_spec("mta:procs=4,procs=8");
  EXPECT_EQ(s.mta.processors, 8u);
}

TEST(MachineSpec, ToStringRoundTripsThroughParse) {
  for (const char* text : {
           "mta",
           "smp",
           "mta:procs=40,streams=64",
           "mta:latency=200,hash=0,numa=300",
           "smp:procs=14,l2_kb=4096",
           "smp:procs=2,l1_kb=0.0625,line=32,quantum=100",
           "gpu",
           "gpu:procs=8,warp_width=16",
           "gpu:warps=8,lat_mem=500,mem_seg_bytes=64,smem_banks=16,"
           "smem_words=2048,lat_smem=20,fork=1024,barrier=64,clock_mhz=1200",
       }) {
    const MachineSpec spec = parse_machine_spec(text);
    const std::string canon = spec.to_string();
    EXPECT_EQ(parse_machine_spec(canon), spec) << text << " -> " << canon;
    // Canonical form is a fixed point.
    EXPECT_EQ(parse_machine_spec(canon).to_string(), canon) << text;
  }
}

TEST(MachineSpec, ToStringOmitsDefaults) {
  EXPECT_EQ(parse_machine_spec("mta").to_string(), "mta");
  EXPECT_EQ(parse_machine_spec("mta:procs=1").to_string(), "mta");
  EXPECT_EQ(parse_machine_spec("mta:procs=8").to_string(), "mta:procs=8");
  EXPECT_EQ(parse_machine_spec("smp:l2_kb=4096").to_string(), "smp");
  EXPECT_EQ(parse_machine_spec("gpu:warp_width=32").to_string(), "gpu");
  EXPECT_EQ(parse_machine_spec("gpu:procs=4").to_string(), "gpu:procs=4");
}

TEST(MachineSpec, RejectsEmptyAndUnknownPreset) {
  EXPECT_NE(message_of([] { parse_machine_spec(""); }).find("empty"),
            std::string::npos);
  const std::string msg = message_of([] { parse_machine_spec("cray:procs=1"); });
  EXPECT_NE(msg.find("unknown machine preset 'cray'"), std::string::npos);
  // The diagnostic lists every valid preset so the fix is self-evident.
  EXPECT_NE(msg.find("mta"), std::string::npos);
  EXPECT_NE(msg.find("smp"), std::string::npos);
  EXPECT_NE(msg.find("gpu"), std::string::npos);
}

TEST(MachineSpec, RejectionsNameTheBadKey) {
  const std::string unknown =
      message_of([] { parse_machine_spec("mta:bogus=1"); });
  EXPECT_NE(unknown.find("unknown mta machine spec key 'bogus'"),
            std::string::npos);
  EXPECT_NE(unknown.find("procs"), std::string::npos);  // lists valid keys

  const std::string not_int =
      message_of([] { parse_machine_spec("mta:procs=many"); });
  EXPECT_NE(not_int.find("'procs'"), std::string::npos);
  EXPECT_NE(not_int.find("'many'"), std::string::npos);

  const std::string no_value =
      message_of([] { parse_machine_spec("mta:procs="); });
  EXPECT_NE(no_value.find("missing a value"), std::string::npos);

  const std::string no_eq = message_of([] { parse_machine_spec("mta:procs"); });
  EXPECT_NE(no_eq.find("key=value"), std::string::npos);

  const std::string bad_flag =
      message_of([] { parse_machine_spec("mta:hash=maybe"); });
  EXPECT_NE(bad_flag.find("'hash'"), std::string::npos);

  const std::string gpu_unknown =
      message_of([] { parse_machine_spec("gpu:streams=64"); });
  EXPECT_NE(gpu_unknown.find("unknown gpu machine spec key 'streams'"),
            std::string::npos);
  EXPECT_NE(gpu_unknown.find("warp_width"), std::string::npos);
}

TEST(MachineSpec, RejectionsNameTheBadField) {
  // Validation runs on the composed config, so out-of-range values are
  // reported with the config field name.
  const std::string procs =
      message_of([] { parse_machine_spec("mta:procs=0"); });
  EXPECT_NE(procs.find("MtaConfig.processors"), std::string::npos);

  const std::string lat =
      message_of([] { parse_machine_spec("mta:latency=1"); });
  EXPECT_NE(lat.find("MtaConfig.memory_latency"), std::string::npos);

  const std::string smp_procs =
      message_of([] { parse_machine_spec("smp:procs=64"); });
  EXPECT_NE(smp_procs.find("SmpConfig.processors"), std::string::npos);

  const std::string line =
      message_of([] { parse_machine_spec("smp:line=48"); });
  EXPECT_NE(line.find("SmpConfig.line_bytes"), std::string::npos);

  const std::string width =
      message_of([] { parse_machine_spec("gpu:warp_width=0"); });
  EXPECT_NE(width.find("GpuConfig.warp_width"), std::string::npos);

  const std::string seg =
      message_of([] { parse_machine_spec("gpu:mem_seg_bytes=12"); });
  EXPECT_NE(seg.find("GpuConfig.mem_seg_bytes"), std::string::npos);
}

TEST(MachineSpec, RejectsNonFiniteAndOversizedValues) {
  // Every spec here is rejected by the parser, before any machine (and its
  // caches) is allocated.
  const std::string inf_clock =
      message_of([] { parse_machine_spec("mta:clock_mhz=inf"); });
  EXPECT_NE(inf_clock.find("'clock_mhz' must be finite"), std::string::npos)
      << inf_clock;

  // Finite in MHz, infinite once scaled to Hz.
  const std::string huge_clock =
      message_of([] { parse_machine_spec("gpu:clock_mhz=1e303"); });
  EXPECT_NE(huge_clock.find("GpuConfig.clock_hz"), std::string::npos)
      << huge_clock;

  const std::string inf_l1 =
      message_of([] { parse_machine_spec("smp:l1_kb=inf"); });
  EXPECT_NE(inf_l1.find("'l1_kb' must be finite"), std::string::npos)
      << inf_l1;

  const std::string huge_l2 =
      message_of([] { parse_machine_spec("smp:l2_kb=1e30"); });
  EXPECT_NE(huge_l2.find("'l2_kb' is more bytes than a u64 holds"),
            std::string::npos)
      << huge_l2;

  // Fits a u64, but no cache tag names that many lines.
  const std::string many_lines =
      message_of([] { parse_machine_spec("smp:l2_kb=1e15"); });
  EXPECT_NE(many_lines.find("SmpConfig.l2_bytes holds more lines"),
            std::string::npos)
      << many_lines;

  // line * l1_ways wraps to 0 in a u64; the divisibility check must not
  // divide by it.
  const std::string wrapped = message_of([] {
    parse_machine_spec("smp:line=4611686018427387904,l1_ways=4");
  });
  EXPECT_NE(wrapped.find("SmpConfig.l1_bytes"), std::string::npos) << wrapped;

  MtaConfig mta;
  mta.clock_hz = std::numeric_limits<double>::infinity();
  EXPECT_NE(message_of([&] { validate(mta); }).find("MtaConfig.clock_hz"),
            std::string::npos);
  SmpConfig smp;
  smp.clock_hz = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(message_of([&] { validate(smp); }).find("SmpConfig.clock_hz"),
            std::string::npos);
}

TEST(MachineSpec, GpuWarpWidthTopsOutAt64) {
  // The issue loop keeps one bit per lane in a 64-bit mask.
  EXPECT_EQ(parse_machine_spec("gpu:warp_width=64").gpu.warp_width, 64u);
  const std::string width =
      message_of([] { parse_machine_spec("gpu:warp_width=65"); });
  EXPECT_NE(width.find("GpuConfig.warp_width must be <= 64"),
            std::string::npos)
      << width;
  EXPECT_NE(width.find("got 65"), std::string::npos) << width;
}

TEST(MakeMachine, BuildsTheRequestedArchitecture) {
  const auto mta = make_machine("mta:procs=40");
  EXPECT_EQ(mta->processors(), 40u);
  EXPECT_EQ(mta->concurrency(), 40u * 128u);
  EXPECT_DOUBLE_EQ(mta->clock_hz(), 220e6);

  const auto smp = make_machine("smp:procs=8");
  EXPECT_EQ(smp->processors(), 8u);
  EXPECT_EQ(smp->concurrency(), 8u);
  EXPECT_DOUBLE_EQ(smp->clock_hz(), 400e6);

  const auto gpu = make_machine("gpu:procs=4,warps=8,warp_width=16");
  EXPECT_EQ(gpu->processors(), 4u);
  EXPECT_EQ(gpu->concurrency(), 4u * 8u * 16u);
  EXPECT_DOUBLE_EQ(gpu->clock_hz(), 1000e6);
}

TEST(MakeMachine, ConfigOverloadsMatchSpecOverloads) {
  MtaConfig cfg;
  cfg.processors = 4;
  const auto from_config = make_machine(cfg);
  const auto from_spec = make_machine("mta:procs=4");
  EXPECT_EQ(from_config->processors(), from_spec->processors());
  EXPECT_EQ(from_config->concurrency(), from_spec->concurrency());
}

TEST(MakeMachine, ThrowsOnInvalidSpec) {
  EXPECT_THROW(make_machine("mta:streams=0"), std::logic_error);
  EXPECT_THROW(make_machine("vliw"), std::logic_error);
  EXPECT_THROW(make_machine("gpu:warp_width=0"), std::logic_error);
  EXPECT_THROW(make_machine("gpu:wavefront=64"), std::logic_error);
}

}  // namespace
}  // namespace archgraph::sim
