// Simulated shared memory.
//
// One flat word-addressed array of 64-bit values, each carrying a full/empty
// tag bit exactly as on the Cray MTA ("each memory word is 68 bits: 64 data
// bits and 4 tag bits; one tag bit — the full-and-empty bit — is used to
// implement synchronous load/store operations"). Words start full, matching
// the machine's normal-store convention; kernels that use producer/consumer
// synchronization first purge words to empty.
//
// Reads/writes through this class move data only; *timing* lives entirely in
// the machine models. Host-side setup and verification use the same accessors
// at zero simulated cost.
//
// Storage is exact: the words live in a single anonymous mapping that each
// alloc() grows to the page-rounded size of the words allocated (mremap, so
// growth never copies the words or holds two copies, and new words read 0
// because new pages are zero). The tag bytes do not exist until the first
// word is emptied: until then every word is full. No raw word pointer may be
// kept across an alloc(), which may move the mapping.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "sim/types.hpp"

namespace archgraph::sim {

class SimMemory {
 public:
  SimMemory() = default;
  ~SimMemory();
  SimMemory(const SimMemory&) = delete;
  SimMemory& operator=(const SimMemory&) = delete;

  /// Bump-allocates `words` consecutive words, zero-filled and full.
  Addr alloc(i64 words);

  i64 size_words() const { return size_; }
  /// Bytes mapped for the words: size_words() x 8 rounded up to whole pages.
  usize mapped_bytes() const { return mapped_bytes_; }

  i64 read(Addr a) const {
    bounds_check(a);
    return words_[a];
  }
  void write(Addr a, i64 v) {
    bounds_check(a);
    words_[a] = v;
  }

  bool full(Addr a) const {
    bounds_check(a);
    return empty_words_ == 0 || full_[a] != 0;
  }
  /// While no word is empty every tag is already full, so setting one full
  /// returns without touching the tag array: a plain store then costs one
  /// host line (the data word), not two, in every kernel that never purges
  /// a word. The first empty builds the tag array.
  void set_full(Addr a, bool full) {
    bounds_check(a);
    if (full && empty_words_ == 0) {
      return;
    }
    if (full_.empty()) {
      full_.assign(static_cast<usize>(size_), 1);
    }
    u8& tag = full_[a];
    if (tag != static_cast<u8>(full)) {
      tag = static_cast<u8>(full);
      empty_words_ += full ? -1 : 1;
    }
  }
  /// Words whose tag is empty.
  i64 empty_words() const { return empty_words_; }
  /// True once a word has been emptied and the tag array exists.
  bool has_tags() const { return !full_.empty(); }

 private:
  // Every simulated memory operation lands here, so release builds compile
  // the accessors branch-free (no bounds test at all — measured: even an
  // optimizer-assumption form of the check inhibits vectorization of the
  // word-at-a-time kernels in bench/micro_sim_hotpath); debug builds still
  // throw on an out-of-range simulated address.
  void bounds_check(Addr a) const {
    AG_DCHECK(a < static_cast<Addr>(size_), "simulated address out of range");
    (void)a;
  }

  i64* words_ = nullptr;  // the mapping; null until the first alloc()
  i64 size_ = 0;          // words allocated, padding included
  usize mapped_bytes_ = 0;
  std::vector<u8> full_;  // one tag per word once a word has been emptied
  i64 empty_words_ = 0;   // words whose full_ tag is 0
};

/// Typed view of a simulated array. T must be losslessly convertible through
/// i64 (the simulated word type); in practice kernels use i64 and NodeId.
template <typename T = i64>
class SimArray {
 public:
  SimArray() = default;

  SimArray(SimMemory& mem, i64 size)
      : mem_(&mem), base_(mem.alloc(size)), size_(size) {}

  i64 size() const { return size_; }
  /// First simulated word of the array (for profiler range labelling).
  Addr base() const { return base_; }
  Addr addr(i64 i) const {
    AG_DCHECK(i >= 0 && i < size_, "SimArray index out of range");
    return base_ + static_cast<Addr>(i);
  }

  /// Host-side (zero simulated cost) accessors: experiment setup + checking.
  T get(i64 i) const { return static_cast<T>(mem_->read(addr(i))); }
  void set(i64 i, T v) { mem_->write(addr(i), static_cast<i64>(v)); }

  void fill(T v) {
    for (i64 i = 0; i < size_; ++i) set(i, v);
  }
  void assign(std::span<const T> values) {
    AG_CHECK(static_cast<i64>(values.size()) == size_, "size mismatch");
    for (i64 i = 0; i < size_; ++i) set(i, values[static_cast<usize>(i)]);
  }
  std::vector<T> to_vector() const {
    std::vector<T> out(static_cast<usize>(size_));
    for (i64 i = 0; i < size_; ++i) out[static_cast<usize>(i)] = get(i);
    return out;
  }

 private:
  SimMemory* mem_ = nullptr;
  Addr base_ = 0;
  i64 size_ = 0;
};

}  // namespace archgraph::sim
