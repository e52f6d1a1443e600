#include "sim/memory.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <new>
#include <vector>

namespace archgraph::sim {
namespace {

TEST(SimMemory, AllocGrowsAndZeroFills) {
  SimMemory mem;
  const Addr a = mem.alloc(10);
  const Addr b = mem.alloc(5);
  EXPECT_EQ(a, 0u);
  // Allocations are disjoint but deliberately NOT back-to-back: the
  // allocator skews bases so equal-sized arrays do not alias to the same
  // cache sets (see SimMemory::alloc).
  EXPECT_GE(b, 10u);
  EXPECT_GE(mem.size_words(), 15);
  for (Addr x = b; x < b + 5; ++x) {
    EXPECT_EQ(mem.read(x), 0);
  }
}

TEST(SimMemory, AllocationSkewBreaksSetAlignment) {
  SimMemory mem;
  const Addr a = mem.alloc(1 << 16);
  const Addr b = mem.alloc(1 << 16);
  const Addr c = mem.alloc(1 << 16);
  // Way size of the direct-mapped 16 KB L1 is 2048 words; corresponding
  // elements of consecutive equal-sized arrays must not all share a set.
  const u64 sets = 2048;
  EXPECT_FALSE((b - a) % sets == 0 && (c - b) % sets == 0);
}

TEST(SimMemory, ReadsBackWrites) {
  SimMemory mem;
  mem.alloc(4);
  mem.write(2, -77);
  EXPECT_EQ(mem.read(2), -77);
  EXPECT_EQ(mem.read(1), 0);
}

TEST(SimMemory, WordsStartFull) {
  SimMemory mem;
  mem.alloc(3);
  EXPECT_TRUE(mem.full(0));
  mem.set_full(0, false);
  EXPECT_FALSE(mem.full(0));
  EXPECT_TRUE(mem.full(1));
  mem.set_full(0, true);
  EXPECT_TRUE(mem.full(0));
}

TEST(SimMemory, CountsEmptyWords) {
  SimMemory mem;
  mem.alloc(4);
  EXPECT_EQ(mem.empty_words(), 0);
  mem.set_full(1, true);  // already full: no change
  EXPECT_EQ(mem.empty_words(), 0);
  mem.set_full(1, false);
  mem.set_full(1, false);  // emptying an empty word counts once
  mem.set_full(3, false);
  EXPECT_EQ(mem.empty_words(), 2);
  mem.set_full(2, true);  // a full word among empty ones stays full
  EXPECT_TRUE(mem.full(2));
  EXPECT_EQ(mem.empty_words(), 2);
  mem.set_full(1, true);
  EXPECT_TRUE(mem.full(1));
  EXPECT_FALSE(mem.full(3));
  EXPECT_EQ(mem.empty_words(), 1);
  mem.alloc(8);  // fresh words start full
  EXPECT_EQ(mem.empty_words(), 1);
  mem.set_full(3, true);
  EXPECT_EQ(mem.empty_words(), 0);
  for (Addr a = 0; a < 4; ++a) {
    EXPECT_TRUE(mem.full(a)) << a;
  }
}

TEST(SimMemory, ZeroSizedAllocIsFine) {
  SimMemory mem;
  const Addr a = mem.alloc(0);
  const Addr b = mem.alloc(1);
  EXPECT_LE(a, b);  // disjoint, maybe padded apart
  mem.write(b, 7);
  EXPECT_EQ(mem.read(b), 7);
}

u64 page_rounded_bytes(i64 words) {
  const auto page = static_cast<u64>(sysconf(_SC_PAGESIZE));
  return (static_cast<u64>(words) * kWordBytes + page - 1) / page * page;
}

TEST(SimMemory, InterleavedAllocsPreserveContentsAndBases) {
  // Growth may move the mapping; every earlier word and base must survive.
  SimMemory mem;
  std::vector<std::pair<Addr, i64>> arrays;
  for (i64 k = 0; k < 64; ++k) {
    const i64 words = (k * 7919) % 20000 + (k % 3 == 0 ? 0 : 1);
    const Addr base = mem.alloc(words);
    if (!arrays.empty()) {
      EXPECT_GE(base, arrays.back().first + arrays.back().second) << k;
    }
    for (i64 i = 0; i < words; ++i) {
      EXPECT_EQ(mem.read(base + i), 0) << k;  // fresh words read zero
      mem.write(base + i, k * 1000003 + i);
    }
    arrays.emplace_back(base, words);
  }
  for (usize k = 0; k < arrays.size(); ++k) {
    const auto [base, words] = arrays[k];
    for (i64 i = 0; i < words; ++i) {
      ASSERT_EQ(mem.read(base + i), static_cast<i64>(k) * 1000003 + i) << k;
    }
  }
}

TEST(SimMemory, MappedBytesArePageRoundedWords) {
  // Capacity never doubles: after each alloc the mapping holds exactly the
  // whole pages the words need.
  SimMemory mem;
  EXPECT_EQ(mem.mapped_bytes(), 0u);
  for (const i64 words : {0, 1, 511, 512, 4096, 100000, 3, 1 << 20, 77}) {
    mem.alloc(words);
    EXPECT_EQ(mem.mapped_bytes(), page_rounded_bytes(mem.size_words()))
        << words;
  }
}

TEST(SimMemory, FailedAllocLeavesTheMemoryUnchanged) {
  // 2^56 words (2^59 bytes) exceed any user address space, so the mapping
  // cannot grow; nothing is committed, and the memory keeps its old size.
  SimMemory mem;
  mem.alloc(100);
  mem.write(42, 7);
  const i64 size = mem.size_words();
  const usize mapped = mem.mapped_bytes();
  EXPECT_THROW(mem.alloc(i64{1} << 56), std::bad_alloc);
  EXPECT_EQ(mem.size_words(), size);
  EXPECT_EQ(mem.mapped_bytes(), mapped);
  EXPECT_EQ(mem.read(42), 7);
}

TEST(SimMemory, TagArrayAbsentUntilTheFirstEmpty) {
  SimMemory mem;
  mem.alloc(100);
  mem.set_full(5, true);  // already full: builds nothing
  EXPECT_FALSE(mem.has_tags());
  EXPECT_TRUE(mem.full(5));
  mem.alloc(50);
  EXPECT_FALSE(mem.has_tags());
  mem.set_full(7, false);
  EXPECT_TRUE(mem.has_tags());
  EXPECT_EQ(mem.empty_words(), 1);
  for (Addr a = 0; a < static_cast<Addr>(mem.size_words()); ++a) {
    EXPECT_EQ(mem.full(a), a != 7) << a;
  }
  const Addr fresh = mem.alloc(30);  // extends the tags, every word full
  for (Addr a = fresh; a < fresh + 30; ++a) {
    EXPECT_TRUE(mem.full(a)) << a;
  }
  mem.set_full(fresh, false);
  EXPECT_FALSE(mem.full(fresh));
  EXPECT_EQ(mem.empty_words(), 2);
}

TEST(SimArray, TypedAccessAndAddressing) {
  SimMemory mem;
  SimArray<i64> arr(mem, 8);
  EXPECT_EQ(arr.size(), 8);
  arr.set(3, 42);
  EXPECT_EQ(arr.get(3), 42);
  EXPECT_EQ(mem.read(arr.addr(3)), 42);
  EXPECT_EQ(arr.addr(4), arr.addr(0) + 4);
}

TEST(SimArray, FillAssignToVector) {
  SimMemory mem;
  SimArray<i64> arr(mem, 4);
  arr.fill(-1);
  EXPECT_EQ(arr.to_vector(), (std::vector<i64>{-1, -1, -1, -1}));
  const std::vector<i64> values{5, 6, 7, 8};
  arr.assign(values);
  EXPECT_EQ(arr.to_vector(), values);
}

TEST(SimArray, AssignRejectsSizeMismatch) {
  SimMemory mem;
  SimArray<i64> arr(mem, 3);
  const std::vector<i64> wrong{1, 2};
  EXPECT_THROW(arr.assign(wrong), std::logic_error);
}

TEST(SimArray, NodeIdSpecialization) {
  SimMemory mem;
  SimArray<NodeId> arr(mem, 2);
  arr.set(0, kNilNode);
  EXPECT_EQ(arr.get(0), kNilNode);
}

}  // namespace
}  // namespace archgraph::sim
