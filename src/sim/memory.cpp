#include "sim/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

#include "common/prng.hpp"

namespace archgraph::sim {

namespace {

usize page_bytes() {
  static const auto bytes = static_cast<usize>(sysconf(_SC_PAGESIZE));
  return bytes;
}

/// Grows the mapping at `old` from `old_bytes` to `new_bytes`, keeping its
/// contents; MAP_FAILED if the kernel refuses.
void* grow_mapping(void* old, usize old_bytes, usize new_bytes) {
#ifdef __SANITIZE_THREAD__
  // ThreadSanitizer does not reset its shadow state for the ranges mremap
  // moves or frees, so a later mapping at a reused address inherits another
  // worker's access history, and TSan reports races between threads that
  // never share a SimMemory. Under TSan, grow by a fresh mapping and a copy.
  void* p = mmap(nullptr, new_bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    std::memcpy(p, old, old_bytes);
    munmap(old, old_bytes);
  }
  return p;
#else
  return mremap(old, old_bytes, new_bytes, MREMAP_MAYMOVE);
#endif
}

}  // namespace

SimMemory::~SimMemory() {
  if (words_ != nullptr) {
    munmap(words_, mapped_bytes_);
  }
}

Addr SimMemory::alloc(i64 words) {
  AG_CHECK(words >= 0, "negative allocation");
  const auto base = static_cast<Addr>(size_);
  // Deterministic inter-allocation skew. Without it, a sequence of
  // equal-sized power-of-two arrays lands at offsets that are multiples of
  // the SMP caches' way size, so corresponding elements of different arrays
  // alias to the same direct-mapped L1 set and evict each other on every
  // access — a pathology real allocators' non-aligned placement avoids. A
  // few hundred words of pad (not a multiple of any cache's set stride)
  // de-correlates the arrays; the MTA model hashes addresses and is
  // indifferent.
  u64 pad_state = base ^ 0x9e3779b97f4a7c15ULL;
  const u64 pad = 24 + splitmix64(pad_state) % 408;
  const i64 size = size_ + words + static_cast<i64>(pad);
  const usize page = page_bytes();
  const usize need =
      (static_cast<usize>(size) * kWordBytes + page - 1) / page * page;
  if (need > mapped_bytes_) {
    void* p = words_ == nullptr
                  ? mmap(nullptr, need, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                  : grow_mapping(words_, mapped_bytes_, need);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    words_ = static_cast<i64*>(p);
    mapped_bytes_ = need;
  }
  // Only once the words are mapped: a failed mapping leaves size_words()
  // unchanged, so no unmapped address passes the bounds check.
  size_ = size;
  if (!full_.empty()) {
    full_.resize(static_cast<usize>(size_), 1);  // new words start full
  }
  return base;
}

}  // namespace archgraph::sim
