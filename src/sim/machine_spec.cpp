#include "sim/machine_spec.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.hpp"

namespace archgraph::sim {

namespace {

i64 parse_int(std::string_view key, std::string_view value) {
  i64 out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  AG_CHECK(ec == std::errc{} && ptr == end,
           "machine spec value for '" + std::string(key) +
               "' is not an integer: '" + std::string(value) + "'");
  return out;
}

u32 parse_u32(std::string_view key, std::string_view value) {
  const i64 v = parse_int(key, value);
  AG_CHECK(v >= 0 && v <= std::numeric_limits<u32>::max(),
           "machine spec value for '" + std::string(key) +
               "' is out of range: '" + std::string(value) + "'");
  return static_cast<u32>(v);
}

double parse_num(std::string_view key, std::string_view value) {
  double out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  AG_CHECK(ec == std::errc{} && ptr == end,
           "machine spec value for '" + std::string(key) +
               "' is not a number: '" + std::string(value) + "'");
  AG_CHECK(std::isfinite(out), "machine spec value for '" + std::string(key) +
                                   "' must be finite: '" + std::string(value) +
                                   "'");
  return out;
}

u64 parse_kb(std::string_view key, std::string_view value) {
  const double kb = parse_num(key, value);
  AG_CHECK(kb >= 0, "machine spec value for '" + std::string(key) +
                        "' must be >= 0: '" + std::string(value) + "'");
  const double bytes = std::round(kb * 1024.0);
  AG_CHECK(bytes < 0x1p64, "machine spec value for '" + std::string(key) +
                               "' is more bytes than a u64 holds: '" +
                               std::string(value) + "'");
  return static_cast<u64>(bytes);
}

bool parse_flag(std::string_view key, std::string_view value) {
  if (value == "1" || value == "on" || value == "true") return true;
  if (value == "0" || value == "off" || value == "false") return false;
  AG_CHECK(false, "machine spec value for '" + std::string(key) +
                      "' must be 0/1/on/off/true/false: '" +
                      std::string(value) + "'");
  return false;  // unreachable
}

void apply_mta_key(MtaConfig& c, std::string_view key,
                   std::string_view value) {
  if (key == "procs") {
    c.processors = parse_u32(key, value);
  } else if (key == "streams") {
    c.streams_per_processor = parse_u32(key, value);
  } else if (key == "latency") {
    c.memory_latency = parse_int(key, value);
  } else if (key == "banks") {
    c.banks_per_processor = parse_u32(key, value);
  } else if (key == "fork") {
    c.region_fork_cycles = parse_int(key, value);
  } else if (key == "barrier") {
    c.barrier_overhead = parse_int(key, value);
  } else if (key == "hash") {
    c.hash_addresses = parse_flag(key, value);
  } else if (key == "numa") {
    c.nonuniform_extra = parse_int(key, value);
  } else if (key == "clock_mhz") {
    c.clock_hz = parse_num(key, value) * 1e6;
  } else {
    AG_CHECK(false, "unknown mta machine spec key '" + std::string(key) +
                        "' (valid: procs, streams, latency, banks, fork, "
                        "barrier, hash, numa, clock_mhz)");
  }
}

void apply_smp_key(SmpConfig& c, std::string_view key,
                   std::string_view value) {
  if (key == "procs") {
    c.processors = parse_u32(key, value);
  } else if (key == "l1_kb") {
    c.l1_bytes = parse_kb(key, value);
  } else if (key == "l1_ways") {
    c.l1_ways = parse_u32(key, value);
  } else if (key == "l1_lat") {
    c.l1_latency = parse_int(key, value);
  } else if (key == "l2_kb") {
    c.l2_bytes = parse_kb(key, value);
  } else if (key == "l2_ways") {
    c.l2_ways = parse_u32(key, value);
  } else if (key == "l2_lat") {
    c.l2_latency = parse_int(key, value);
  } else if (key == "line") {
    const i64 v = parse_int(key, value);
    AG_CHECK(v > 0, "machine spec value for 'line' must be > 0: '" +
                        std::string(value) + "'");
    c.line_bytes = static_cast<u64>(v);
  } else if (key == "latency") {
    c.memory_latency = parse_int(key, value);
  } else if (key == "bus") {
    c.bus_occupancy = parse_int(key, value);
  } else if (key == "store_miss") {
    c.store_miss_cost = parse_int(key, value);
  } else if (key == "rmw") {
    c.rmw_cost = parse_int(key, value);
  } else if (key == "coherence") {
    c.coherence_penalty = parse_int(key, value);
  } else if (key == "barrier_base") {
    c.barrier_base = parse_int(key, value);
  } else if (key == "barrier_per_proc") {
    c.barrier_per_proc = parse_int(key, value);
  } else if (key == "context_switch") {
    c.context_switch = parse_int(key, value);
  } else if (key == "quantum") {
    c.quantum = parse_int(key, value);
  } else if (key == "fork") {
    c.region_fork_cycles = parse_int(key, value);
  } else if (key == "clock_mhz") {
    c.clock_hz = parse_num(key, value) * 1e6;
  } else {
    AG_CHECK(false, "unknown smp machine spec key '" + std::string(key) +
                        "' (valid: procs, l1_kb, l1_ways, l1_lat, l2_kb, "
                        "l2_ways, l2_lat, line, latency, bus, store_miss, "
                        "rmw, coherence, barrier_base, barrier_per_proc, "
                        "context_switch, quantum, fork, clock_mhz)");
  }
}

void apply_gpu_key(GpuConfig& c, std::string_view key,
                   std::string_view value) {
  if (key == "procs") {
    c.processors = parse_u32(key, value);
  } else if (key == "warps") {
    c.warps_per_processor = parse_u32(key, value);
  } else if (key == "warp_width") {
    c.warp_width = parse_u32(key, value);
  } else if (key == "lat_mem") {
    c.memory_latency = parse_int(key, value);
  } else if (key == "mem_seg_bytes") {
    const i64 v = parse_int(key, value);
    AG_CHECK(v > 0, "machine spec value for 'mem_seg_bytes' must be > 0: '" +
                        std::string(value) + "'");
    c.mem_seg_bytes = static_cast<u64>(v);
  } else if (key == "smem_banks") {
    c.smem_banks = parse_u32(key, value);
  } else if (key == "smem_words") {
    c.smem_words = parse_u32(key, value);
  } else if (key == "lat_smem") {
    c.smem_latency = parse_int(key, value);
  } else if (key == "fork") {
    c.region_fork_cycles = parse_int(key, value);
  } else if (key == "barrier") {
    c.barrier_overhead = parse_int(key, value);
  } else if (key == "clock_mhz") {
    c.clock_hz = parse_num(key, value) * 1e6;
  } else {
    AG_CHECK(false, "unknown gpu machine spec key '" + std::string(key) +
                        "' (valid: procs, warps, warp_width, lat_mem, "
                        "mem_seg_bytes, smem_banks, smem_words, lat_smem, "
                        "fork, barrier, clock_mhz)");
  }
}

/// Prints integers without a decimal point and fractions exactly enough to
/// round-trip through parse_kb / clock_mhz.
std::string fmt_num(double v) {
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

/// Appends "key=value" overrides to a canonical spec string.
class SpecWriter {
 public:
  explicit SpecWriter(MachineArch arch) : out_(arch_name(arch)) {}

  void add(const char* key, const std::string& value) {
    out_ += first_ ? ':' : ',';
    first_ = false;
    out_ += key;
    out_ += '=';
    out_ += value;
  }
  void add_int(const char* key, i64 value, i64 default_value) {
    if (value != default_value) add(key, std::to_string(value));
  }
  void add_kb(const char* key, u64 bytes, u64 default_bytes) {
    if (bytes != default_bytes) {
      add(key, fmt_num(static_cast<double>(bytes) / 1024.0));
    }
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
  bool first_ = true;
};

}  // namespace

const char* arch_name(MachineArch arch) {
  switch (arch) {
    case MachineArch::kMta:
      return "mta";
    case MachineArch::kSmp:
      return "smp";
    case MachineArch::kGpu:
      return "gpu";
  }
  return "?";  // unreachable
}

std::string MachineSpec::to_string() const {
  SpecWriter w(arch);
  if (arch == MachineArch::kGpu) {
    const GpuConfig d;
    w.add_int("procs", gpu.processors, d.processors);
    w.add_int("warps", gpu.warps_per_processor, d.warps_per_processor);
    w.add_int("warp_width", gpu.warp_width, d.warp_width);
    w.add_int("lat_mem", gpu.memory_latency, d.memory_latency);
    w.add_int("mem_seg_bytes", static_cast<i64>(gpu.mem_seg_bytes),
              static_cast<i64>(d.mem_seg_bytes));
    w.add_int("smem_banks", gpu.smem_banks, d.smem_banks);
    w.add_int("smem_words", gpu.smem_words, d.smem_words);
    w.add_int("lat_smem", gpu.smem_latency, d.smem_latency);
    w.add_int("fork", gpu.region_fork_cycles, d.region_fork_cycles);
    w.add_int("barrier", gpu.barrier_overhead, d.barrier_overhead);
    if (gpu.clock_hz != d.clock_hz) {
      w.add("clock_mhz", fmt_num(gpu.clock_hz / 1e6));
    }
  } else if (arch == MachineArch::kMta) {
    const MtaConfig d;
    w.add_int("procs", mta.processors, d.processors);
    w.add_int("streams", mta.streams_per_processor, d.streams_per_processor);
    w.add_int("latency", mta.memory_latency, d.memory_latency);
    w.add_int("banks", mta.banks_per_processor, d.banks_per_processor);
    w.add_int("fork", mta.region_fork_cycles, d.region_fork_cycles);
    w.add_int("barrier", mta.barrier_overhead, d.barrier_overhead);
    if (mta.hash_addresses != d.hash_addresses) {
      w.add("hash", mta.hash_addresses ? "1" : "0");
    }
    w.add_int("numa", mta.nonuniform_extra, d.nonuniform_extra);
    if (mta.clock_hz != d.clock_hz) {
      w.add("clock_mhz", fmt_num(mta.clock_hz / 1e6));
    }
  } else {
    const SmpConfig d;
    w.add_int("procs", smp.processors, d.processors);
    w.add_kb("l1_kb", smp.l1_bytes, d.l1_bytes);
    w.add_int("l1_ways", smp.l1_ways, d.l1_ways);
    w.add_int("l1_lat", smp.l1_latency, d.l1_latency);
    w.add_kb("l2_kb", smp.l2_bytes, d.l2_bytes);
    w.add_int("l2_ways", smp.l2_ways, d.l2_ways);
    w.add_int("l2_lat", smp.l2_latency, d.l2_latency);
    w.add_int("line", static_cast<i64>(smp.line_bytes),
              static_cast<i64>(d.line_bytes));
    w.add_int("latency", smp.memory_latency, d.memory_latency);
    w.add_int("bus", smp.bus_occupancy, d.bus_occupancy);
    w.add_int("store_miss", smp.store_miss_cost, d.store_miss_cost);
    w.add_int("rmw", smp.rmw_cost, d.rmw_cost);
    w.add_int("coherence", smp.coherence_penalty, d.coherence_penalty);
    w.add_int("barrier_base", smp.barrier_base, d.barrier_base);
    w.add_int("barrier_per_proc", smp.barrier_per_proc, d.barrier_per_proc);
    w.add_int("context_switch", smp.context_switch, d.context_switch);
    w.add_int("quantum", smp.quantum, d.quantum);
    w.add_int("fork", smp.region_fork_cycles, d.region_fork_cycles);
    if (smp.clock_hz != d.clock_hz) {
      w.add("clock_mhz", fmt_num(smp.clock_hz / 1e6));
    }
  }
  return w.take();
}

MachineSpec parse_machine_spec(std::string_view text) {
  AG_CHECK(!text.empty(),
           "machine spec is empty (valid presets: mta, smp, gpu; optionally "
           "with ':key=value,...' overrides)");
  std::string_view preset = text;
  std::string_view rest;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    preset = text.substr(0, colon);
    rest = text.substr(colon + 1);
  }

  MachineSpec spec;
  if (preset == "mta") {
    spec.arch = MachineArch::kMta;
  } else if (preset == "smp") {
    spec.arch = MachineArch::kSmp;
  } else if (preset == "gpu") {
    spec.arch = MachineArch::kGpu;
  } else {
    AG_CHECK(false, "unknown machine preset '" + std::string(preset) +
                        "' (valid presets: mta, smp, gpu)");
  }

  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const std::string_view pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const auto eq = pair.find('=');
    AG_CHECK(eq != std::string_view::npos && eq > 0,
             "machine spec override '" + std::string(pair) +
                 "' must have the form key=value");
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    AG_CHECK(!value.empty(), "machine spec key '" + std::string(key) +
                                 "' is missing a value");
    switch (spec.arch) {
      case MachineArch::kMta:
        apply_mta_key(spec.mta, key, value);
        break;
      case MachineArch::kSmp:
        apply_smp_key(spec.smp, key, value);
        break;
      case MachineArch::kGpu:
        apply_gpu_key(spec.gpu, key, value);
        break;
    }
  }

  switch (spec.arch) {
    case MachineArch::kMta:
      validate(spec.mta);
      break;
    case MachineArch::kSmp:
      validate(spec.smp);
      break;
    case MachineArch::kGpu:
      validate(spec.gpu);
      break;
  }
  return spec;
}

std::unique_ptr<Machine> make_machine(const MachineSpec& spec) {
  switch (spec.arch) {
    case MachineArch::kMta:
      return std::make_unique<MtaMachine>(spec.mta);
    case MachineArch::kSmp:
      return std::make_unique<SmpMachine>(spec.smp);
    case MachineArch::kGpu:
      return std::make_unique<GpuMachine>(spec.gpu);
  }
  AG_CHECK(false, "unreachable machine arch");
  return nullptr;
}

std::unique_ptr<Machine> make_machine(std::string_view spec_text) {
  return make_machine(parse_machine_spec(spec_text));
}

std::unique_ptr<Machine> make_machine(const MtaConfig& config) {
  return std::make_unique<MtaMachine>(config);
}

std::unique_ptr<Machine> make_machine(const SmpConfig& config) {
  return std::make_unique<SmpMachine>(config);
}

std::unique_ptr<Machine> make_machine(const GpuConfig& config) {
  return std::make_unique<GpuMachine>(config);
}

}  // namespace archgraph::sim
