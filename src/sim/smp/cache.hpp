// Set-associative cache model (timing only — data lives in SimMemory).
//
// Tracks tags, dirty bits and LRU order so the SMP machine can classify each
// access as L1 hit / L2 hit / memory fill and charge the right latency. A
// direct-mapped cache is ways == 1 (the E4500's 16 KB L1 is direct-mapped).
//
// Tag layout. One SMP machine carries a 4 MB L2 per processor, so its tag
// arrays dominate the simulator's host footprint; each way is kept small:
//   * tag: a u32 holding `line + 1` in bits 0..30 (0 = invalid way) and the
//     dirty bit in bit 31, so lines below kMaxLines are representable;
//   * direct-mapped (ways == 1): the tag alone, 4 bytes per way, in a dense
//     u32 array — there is no replacement choice, so no LRU state;
//   * associative (ways > 1): tag plus a u32 recency rank, 8 bytes per way.
//     The ranks of one set are a permutation of 0..ways-1 with 0 the most
//     recently used; a touch moves its way to rank 0 and shifts every more
//     recent way down one. Ranks never wrap, and among valid ways rank order
//     is last-touch order, so the victim (the first invalid way, else the
//     highest rank) is exactly the least recently used way of a timestamped
//     LRU, whose valid ways never tie.
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/types.hpp"

namespace archgraph::sim {

class Cache {
 public:
  /// Lines [0, kMaxLines) fit a tag: bit 31 is the dirty bit and `line + 1`
  /// must stay nonzero in the 31 bits below it.
  static constexpr u64 kMaxLines = (u64{1} << 31) - 1;

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
    const u32 key = tag_key(line);
    const u32 dirty = u32{write} << kDirtyShift;
    if (ways_ == 1) {
      // Direct-mapped fast path (the E4500's 16 KB L1): one tag compare.
      u32& tag = tags_[set_of(line)];
      if ((tag & kKeyMask) == key) {
        tag |= dirty;
        return AccessResult{.hit = true};
      }
      return replace(tag, key | dirty);
    }
    Way* const set = &ways_arr_[set_of(line) * ways_];
    for (u32 i = 0; i < ways_; ++i) {
      if ((set[i].tag & kKeyMask) == key) {
        set[i].tag |= dirty;
        touch(set, i);
        return AccessResult{.hit = true};
      }
    }
    return install(set, key | dirty);
  }

  bool contains(u64 line) const;

  /// Removes `line` if present; returns true iff it was present and dirty.
  bool invalidate(u64 line);

  /// Drops every line (region boundaries do not flush; tests use this).
  void clear();

 private:
  struct Way {
    u32 tag = 0;   // layout above; 0 = invalid
    u32 rank = 0;  // recency within the set, 0 = most recent
  };
  static_assert(sizeof(Way) == 8, "an associative way is at most 8 bytes");
  static constexpr u32 kDirtyShift = 31;
  static constexpr u32 kKeyMask = (u32{1} << kDirtyShift) - 1;

  static u32 tag_key(u64 line) {
    AG_DCHECK(line < kMaxLines, "cache line index does not fit the tag");
    return static_cast<u32>(line + 1);
  }

  /// Moves way `w` to rank 0; the ways more recent than it age by one.
  void touch(Way* set, u32 w) {
    const u32 r = set[w].rank;
    for (u32 i = 0; i < ways_; ++i) {
      set[i].rank += set[i].rank < r ? 1 : 0;
    }
    set[w].rank = 0;
  }

  /// Miss path: overwrites `tag` with `fresh`, reporting what it held.
  static AccessResult replace(u32& tag, u32 fresh) {
    AccessResult result;
    if (tag != 0) {
      result.evicted = true;
      result.evicted_line = (tag & kKeyMask) - 1;
      result.evicted_dirty = (tag >> kDirtyShift) != 0;
    }
    tag = fresh;
    return result;
  }
  /// Miss path of an associative access(): installs `fresh` in the victim
  /// way of `set`.
  AccessResult install(Way* set, u32 fresh);
  /// The tag holding `line`, or nullptr when it is not cached.
  const u32* find(u64 line) const;

  /// Set selection avoids the modulo in the common case: cache geometries
  /// are nearly always power-of-two set counts, where `line & mask` is exact.
  usize set_of(u64 line) const {
    return static_cast<usize>(set_mask_ != 0 || sets_ == 1 ? line & set_mask_
                                                           : line % sets_);
  }

  u64 line_bytes_;
  u32 line_shift_;   // log2(line_bytes_)
  u64 sets_;
  u64 set_mask_;     // sets_ - 1 when sets_ is a power of two, else 0
  u32 ways_;
  std::vector<u32> tags_;     // ways_ == 1: one tag per set
  std::vector<Way> ways_arr_;  // ways_ > 1: sets_ * ways_, set-major
};

}  // namespace archgraph::sim
