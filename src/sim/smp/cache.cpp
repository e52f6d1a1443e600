#include "sim/smp/cache.hpp"

#include <algorithm>
#include <bit>

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
  if (ways_ == 1) {
    tags_.resize(static_cast<usize>(sets_));
  } else {
    ways_arr_.resize(static_cast<usize>(sets_) * ways_);
  }
  clear();
}

Cache::AccessResult Cache::install(Way* set, u32 fresh) {
  // Miss: victim is the first invalid way, else the least recently used
  // (the highest rank; ranks are distinct, so there is no tie to break).
  u32 victim = 0;
  for (u32 i = 0; i < ways_; ++i) {
    if (set[i].tag == 0) {
      victim = i;
      break;
    }
    if (set[i].rank > set[victim].rank) {
      victim = i;
    }
  }
  const AccessResult result = replace(set[victim].tag, fresh);
  touch(set, victim);
  return result;
}

const u32* Cache::find(u64 line) const {
  const u32 key = tag_key(line);
  if (ways_ == 1) {
    const u32& tag = tags_[set_of(line)];
    return (tag & kKeyMask) == key ? &tag : nullptr;
  }
  const Way* const set = &ways_arr_[set_of(line) * ways_];
  for (u32 i = 0; i < ways_; ++i) {
    if ((set[i].tag & kKeyMask) == key) {
      return &set[i].tag;
    }
  }
  return nullptr;
}

bool Cache::contains(u64 line) const { return find(line) != nullptr; }

bool Cache::invalidate(u64 line) {
  u32* const tag = const_cast<u32*>(find(line));
  if (tag == nullptr) {
    return false;
  }
  // The way keeps its rank: ranks stay a permutation, and an invalid way is
  // refilled before any rank is consulted.
  const bool dirty = (*tag >> kDirtyShift) != 0;
  *tag = 0;
  return dirty;
}

void Cache::clear() {
  std::fill(tags_.begin(), tags_.end(), 0u);
  for (usize base = 0; base < ways_arr_.size(); base += ways_) {
    for (u32 i = 0; i < ways_; ++i) {
      ways_arr_[base + i] = Way{.tag = 0, .rank = i};
    }
  }
}

}  // namespace archgraph::sim
