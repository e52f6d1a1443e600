// Size-classed free-list allocator for coroutine frames.
//
// Every spawned kernel thread allocates exactly one coroutine frame (kernels
// write their loops inline; see sim/task.hpp). MTA-shaped kernels spawn a
// fresh set of workers per region, and a cell runs dozens of regions, so
// frames still churn: malloc'ing each one would hand back cold memory. This
// pool recycles frames LIFO within a size class, so the steady-state working
// set is the handful of frame shapes the active kernels use, served from
// cache-warm memory.
//
// allocations() counts the frames handed out on this host thread, and
// bytes() their requested sizes (the compiler's frame sizes, before size
// class rounding). They are host-side regression guards (tests bound frames
// and frame bytes per spawned thread) and bench counters; they never enter
// a simulated result.
//
// Thread safety: the pool is thread_local. A frame is always allocated and
// freed on the thread simulating its region (spawn, resume, and region
// teardown all happen on the caller of Machine::run_region), so per-thread
// pools need no locks and sweep workers cannot contend.
//
// Blocks are never returned to the system until thread exit; the pool's
// high-water mark is one region's peak live frames, which is bounded by the
// largest spawn count a kernel driver requests.
#pragma once

#include <array>
#include <cstddef>
#include <new>

#include "common/types.hpp"

namespace archgraph::sim::detail {

class FramePool {
 public:
  static constexpr usize kGranularity = 64;  // one cache line
  static constexpr usize kClasses = 64;      // covers frames up to 4 KiB

  void* alloc(usize size) {
    ++allocations_;
    bytes_ += size;
    const usize cls = (size + kGranularity - 1) / kGranularity;
    if (cls >= kClasses) {
      return ::operator new(size);  // oversized frame: fall through
    }
    if (FreeNode* node = free_[cls]) {
      free_[cls] = node->next;
      return node;
    }
    return ::operator new(cls * kGranularity);
  }

  void free(void* p, usize size) noexcept {
    const usize cls = (size + kGranularity - 1) / kGranularity;
    if (cls >= kClasses) {
      ::operator delete(p);
      return;
    }
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
  }

  /// Frames allocated on this host thread so far.
  u64 allocations() const { return allocations_; }
  /// Frame bytes requested on this host thread so far.
  u64 bytes() const { return bytes_; }

  ~FramePool() {
    for (usize cls = 0; cls < kClasses; ++cls) {
      FreeNode* node = free_[cls];
      while (node != nullptr) {
        FreeNode* next = node->next;
        ::operator delete(node);
        node = next;
      }
    }
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  std::array<FreeNode*, kClasses> free_{};
  u64 allocations_ = 0;
  u64 bytes_ = 0;
};

inline FramePool& frame_pool() {
  static thread_local FramePool pool;
  return pool;
}

}  // namespace archgraph::sim::detail
