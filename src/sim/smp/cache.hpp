// Set-associative cache model (timing only — data lives in SimMemory).
//
// Tracks tags, dirty bits and LRU order so the SMP machine can classify each
// access as L1 hit / L2 hit / memory fill and charge the right latency. A
// direct-mapped cache is ways == 1 (the E4500's 16 KB L1 is direct-mapped).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "sim/types.hpp"

namespace archgraph::sim {

class Cache {
 public:
  /// size_bytes must be a multiple of line_bytes * ways; line_bytes a power
  /// of two.
  Cache(u64 size_bytes, u64 line_bytes, u32 ways);

  u64 line_bytes() const { return line_bytes_; }
  u64 num_sets() const { return sets_; }

  /// Line index of a simulated word address. Line sizes are validated powers
  /// of two, so this is a shift, not a multiply/divide.
  u64 line_of(Addr word_addr) const {
    return (word_addr * kWordBytes) >> line_shift_;
  }

  struct AccessResult {
    bool hit = false;
    bool evicted = false;
    u64 evicted_line = 0;
    bool evicted_dirty = false;
  };

  /// Looks up `line`; on a miss, installs it (evicting the LRU way).
  /// `write` marks the line dirty. The hit path is inline: it is the SMP's
  /// per-access hot path (most loads and stores hit L1).
  AccessResult access(u64 line, bool write) {
    Way* const set = &slots_[set_base(line)];
    ++tick_;
    if (ways_ == 1) {
      // Direct-mapped fast path (the E4500's 16 KB L1): one tag compare.
      if (set->line == line) return hit(*set, write);
    } else {
      for (u32 i = 0; i < ways_; ++i) {
        if (set[i].line == line) return hit(set[i], write);
      }
    }
    return install(set, line, write);
  }

  bool contains(u64 line) const;

  /// Removes `line` if present; returns true iff it was present and dirty.
  bool invalidate(u64 line);

  /// Drops every line (region boundaries do not flush; tests use this).
  void clear();

 private:
  struct Way {
    u64 line = kInvalid;
    u64 lru = 0;
    bool dirty = false;
  };
  static constexpr u64 kInvalid = ~u64{0};

  AccessResult hit(Way& w, bool write) {
    w.lru = tick_;
    w.dirty = w.dirty || write;
    return AccessResult{.hit = true};
  }
  /// Miss path of access(): installs `line` in the victim way of `set`.
  AccessResult install(Way* set, u64 line, bool write);

  /// Set selection avoids the modulo in the common case: cache geometries
  /// are nearly always power-of-two set counts, where `line & mask` is exact.
  usize set_base(u64 line) const {
    const u64 set = set_mask_ != 0 || sets_ == 1 ? line & set_mask_
                                                 : line % sets_;
    return static_cast<usize>(set) * ways_;
  }

  u64 line_bytes_;
  u32 line_shift_;   // log2(line_bytes_)
  u64 sets_;
  u64 set_mask_;     // sets_ - 1 when sets_ is a power of two, else 0
  u32 ways_;
  u64 tick_ = 0;  // global LRU clock
  std::vector<Way> slots_;  // sets_ * ways_, set-major
};

}  // namespace archgraph::sim
