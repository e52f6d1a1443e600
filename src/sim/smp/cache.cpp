#include "sim/smp/cache.hpp"

#include <bit>

#include "common/check.hpp"

namespace archgraph::sim {

Cache::Cache(u64 size_bytes, u64 line_bytes, u32 ways)
    : line_bytes_(line_bytes), ways_(ways) {
  AG_CHECK(line_bytes >= kWordBytes && (line_bytes & (line_bytes - 1)) == 0,
           "line size must be a power of two >= one word");
  AG_CHECK(ways >= 1, "need at least one way");
  AG_CHECK(size_bytes % (line_bytes * ways) == 0,
           "cache size must divide into sets");
  line_shift_ = static_cast<u32>(std::countr_zero(line_bytes));
  sets_ = size_bytes / (line_bytes * ways);
  AG_CHECK(sets_ >= 1, "cache too small for its associativity");
  set_mask_ = (sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0;
  slots_.assign(static_cast<usize>(sets_) * ways_, Way{});
}

Cache::AccessResult Cache::install(Way* set, u64 line, bool write) {
  // Miss: victim is the first invalid way, else the LRU-oldest (ties resolve
  // to the lowest index, matching the original single-pass selection).
  u32 victim = 0;
  for (u32 i = 0; i < ways_; ++i) {
    if (set[i].line == kInvalid) {
      victim = i;
      break;
    }
    if (set[i].lru < set[victim].lru) {
      victim = i;
    }
  }
  AccessResult result;
  if (set[victim].line != kInvalid) {
    result.evicted = true;
    result.evicted_line = set[victim].line;
    result.evicted_dirty = set[victim].dirty;
  }
  set[victim] = Way{.line = line, .lru = tick_, .dirty = write};
  return result;
}

bool Cache::contains(u64 line) const {
  const Way* const set = &slots_[set_base(line)];
  for (u32 i = 0; i < ways_; ++i) {
    if (set[i].line == line) {
      return true;
    }
  }
  return false;
}

bool Cache::invalidate(u64 line) {
  Way* const set = &slots_[set_base(line)];
  for (u32 i = 0; i < ways_; ++i) {
    if (set[i].line == line) {
      const bool dirty = set[i].dirty;
      set[i] = Way{};
      return dirty;
    }
  }
  return false;
}

void Cache::clear() { slots_.assign(slots_.size(), Way{}); }

}  // namespace archgraph::sim
