#include "sim/smp/cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/prng.hpp"

namespace archgraph::sim {
namespace {

TEST(Cache, MissThenHit) {
  Cache c(1024, 64, 1);
  EXPECT_FALSE(c.access(5, false).hit);
  EXPECT_TRUE(c.access(5, false).hit);
  EXPECT_TRUE(c.contains(5));
  EXPECT_FALSE(c.contains(6));
}

TEST(Cache, LineOfUsesBytes) {
  Cache c(1024, 64, 1);
  // 64-byte lines hold 8 words.
  EXPECT_EQ(c.line_of(0), 0u);
  EXPECT_EQ(c.line_of(7), 0u);
  EXPECT_EQ(c.line_of(8), 1u);
}

TEST(Cache, DirectMappedConflictEvicts) {
  Cache c(1024, 64, 1);  // 16 sets
  c.access(0, false);
  const auto r = c.access(16, false);  // same set (16 % 16 == 0)
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 0u);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(16));
}

TEST(Cache, AssociativityAvoidsConflict) {
  Cache c(1024, 64, 2);  // 8 sets, 2 ways
  c.access(0, false);
  c.access(8, false);  // same set, second way
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(8));
  const auto r = c.access(16, false);  // evicts LRU (line 0)
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 0u);
  EXPECT_TRUE(c.contains(8));
}

TEST(Cache, LruIsUpdatedByHits) {
  Cache c(1024, 64, 2);  // 8 sets
  c.access(0, false);
  c.access(8, false);
  c.access(0, false);  // touch 0: now 8 is LRU
  const auto r = c.access(16, false);
  EXPECT_EQ(r.evicted_line, 8u);
  EXPECT_TRUE(c.contains(0));
}

TEST(Cache, DirtyTrackingThroughEviction) {
  Cache c(1024, 64, 1);
  c.access(3, true);  // dirty fill
  const auto r = c.access(3 + 16, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.evicted_dirty);
  const auto r2 = c.access(3 + 32, false);  // evicts the clean line
  EXPECT_TRUE(r2.evicted);
  EXPECT_FALSE(r2.evicted_dirty);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(1024, 64, 1);
  c.access(4, false);           // clean fill
  c.access(4, true);            // write hit: now dirty
  const auto r = c.access(20, false);
  EXPECT_TRUE(r.evicted_dirty);
}

TEST(Cache, InvalidateReportsDirtiness) {
  Cache c(1024, 64, 1);
  c.access(2, true);
  EXPECT_TRUE(c.invalidate(2));
  EXPECT_FALSE(c.contains(2));
  EXPECT_FALSE(c.invalidate(2));  // already gone
  c.access(2, false);
  EXPECT_FALSE(c.invalidate(2));  // present but clean
}

TEST(Cache, ClearDropsEverything) {
  Cache c(1024, 64, 4);
  for (u64 line = 0; line < 16; ++line) {
    c.access(line, true);
  }
  c.clear();
  for (u64 line = 0; line < 16; ++line) {
    EXPECT_FALSE(c.contains(line));
  }
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(Cache(1000, 48, 1), std::logic_error);   // non-power-of-two line
  EXPECT_THROW(Cache(100, 64, 1), std::logic_error);    // size not divisible
  EXPECT_THROW(Cache(1024, 64, 0), std::logic_error);   // zero ways
  EXPECT_THROW(Cache(1024, 4, 1), std::logic_error);    // line < word
}

TEST(Cache, FullyAssociativeSingleSet) {
  Cache c(256, 64, 4);  // exactly one set of 4 ways
  c.access(100, false);
  c.access(200, false);
  c.access(300, false);
  c.access(400, false);
  EXPECT_TRUE(c.contains(100));
  const auto r = c.access(500, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, 100u);  // LRU
}

/// Reference model: the timestamped LRU cache the compact tag store
/// replaced, 24 bytes per way. Every access bumps one clock; a hit or fill
/// stamps its way; the victim is the first invalid way, else the oldest
/// stamp, ties to the lowest index.
class ReferenceLru {
 public:
  ReferenceLru(u64 size_bytes, u64 line_bytes, u32 ways)
      : ways_(ways),
        sets_(size_bytes / (line_bytes * ways)),
        slots_(static_cast<usize>(sets_) * ways) {}

  Cache::AccessResult access(u64 line, bool write) {
    Way* const set = set_of(line);
    ++tick_;
    for (u32 i = 0; i < ways_; ++i) {
      if (set[i].line == line) {
        set[i].lru = tick_;
        set[i].dirty = set[i].dirty || write;
        return Cache::AccessResult{.hit = true};
      }
    }
    u32 victim = 0;
    for (u32 i = 0; i < ways_; ++i) {
      if (set[i].line == kInvalid) {
        victim = i;
        break;
      }
      if (set[i].lru < set[victim].lru) victim = i;
    }
    Cache::AccessResult result;
    if (set[victim].line != kInvalid) {
      result.evicted = true;
      result.evicted_line = set[victim].line;
      result.evicted_dirty = set[victim].dirty;
    }
    set[victim] = Way{.line = line, .lru = tick_, .dirty = write};
    return result;
  }

  bool contains(u64 line) {
    Way* const set = set_of(line);
    for (u32 i = 0; i < ways_; ++i) {
      if (set[i].line == line) return true;
    }
    return false;
  }

  bool invalidate(u64 line) {
    Way* const set = set_of(line);
    for (u32 i = 0; i < ways_; ++i) {
      if (set[i].line == line) {
        const bool dirty = set[i].dirty;
        set[i] = Way{};
        return dirty;
      }
    }
    return false;
  }

  void clear() { slots_.assign(slots_.size(), Way{}); }

 private:
  static constexpr u64 kInvalid = ~u64{0};
  struct Way {
    u64 line = kInvalid;
    u64 lru = 0;
    bool dirty = false;
  };
  Way* set_of(u64 line) {
    return &slots_[static_cast<usize>(line % sets_) * ways_];
  }

  u32 ways_;
  u64 sets_;
  u64 tick_ = 0;
  std::vector<Way> slots_;
};

TEST(Cache, DifferentialAgainstTimestampedLru) {
  // Seeded random access, write, invalidate and clear streams over lines a
  // few times the capacity, with a hot range that keeps sets full and
  // re-touched. Every AccessResult and every contains/invalidate answer
  // must equal the reference's, for each geometry the SMP can be given.
  struct Geometry {
    u64 size_bytes;
    u32 ways;
    const char* name;
  };
  const std::vector<Geometry> geometries = {
      {1024, 1, "direct-mapped, 16 sets"},
      {1024, 2, "2-way, 8 sets"},
      {2048, 4, "4-way, 8 sets"},
      {4096, 8, "8-way, 8 sets"},
      {1024, 16, "fully associative, 16 ways"},
      {768, 4, "4-way, 3 sets (not a power of two)"},
      {320, 1, "direct-mapped, 5 sets (not a power of two)"},
  };
  u64 seed = 0xcac4e1u;
  for (const Geometry& g : geometries) {
    Cache cache(g.size_bytes, 64, g.ways);
    ReferenceLru ref(g.size_bytes, 64, g.ways);
    Prng rng(seed++);
    const u64 capacity = g.size_bytes / 64;
    u64 hits = 0;
    u64 evictions = 0;
    for (int step = 0; step < 60000; ++step) {
      const std::string where = std::string(g.name) + ", step " +
                                std::to_string(step);
      const u64 line = rng.below(4) == 0 ? rng.below(4 * capacity)
                                         : rng.below(capacity + capacity / 2);
      const u64 roll = rng.below(1000);
      if (roll < 700) {
        const bool write = rng.below(3) == 0;
        const Cache::AccessResult a = cache.access(line, write);
        const Cache::AccessResult b = ref.access(line, write);
        ASSERT_EQ(a.hit, b.hit) << where;
        ASSERT_EQ(a.evicted, b.evicted) << where;
        ASSERT_EQ(a.evicted_line, b.evicted_line) << where;
        ASSERT_EQ(a.evicted_dirty, b.evicted_dirty) << where;
        hits += a.hit ? 1 : 0;
        evictions += a.evicted ? 1 : 0;
      } else if (roll < 850) {
        ASSERT_EQ(cache.contains(line), ref.contains(line)) << where;
      } else if (roll < 999) {
        ASSERT_EQ(cache.invalidate(line), ref.invalidate(line)) << where;
      } else {
        cache.clear();
        ref.clear();
      }
    }
    for (u64 line = 0; line < 4 * capacity; ++line) {
      ASSERT_EQ(cache.contains(line), ref.contains(line))
          << g.name << ", final line " << line;
    }
    EXPECT_GT(hits, 10000u) << g.name;
    EXPECT_GT(evictions, 1000u) << g.name;
  }
}

TEST(Cache, HighestRepresentableLineRoundTrips) {
  // The tag keeps `line + 1` in 31 bits: the largest line a tag holds must
  // come back intact through eviction, with its dirty bit.
  Cache c(1024, 64, 2);  // 8 sets
  const u64 top = Cache::kMaxLines - 1;  // top % 8 == 6
  c.access(top, true);
  EXPECT_TRUE(c.contains(top));
  c.access(6, false);
  const Cache::AccessResult r = c.access(14, false);  // same set, evicts top
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_line, top);
  EXPECT_TRUE(r.evicted_dirty);
}

}  // namespace
}  // namespace archgraph::sim
