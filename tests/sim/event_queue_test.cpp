#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/prng.hpp"

namespace archgraph::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(30, 1, 0);
  q.push(10, 2, 0);
  q.push(20, 3, 0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().kind, 2u);
  EXPECT_EQ(q.pop().kind, 3u);
  EXPECT_EQ(q.pop().kind, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  q.push(5, 10, 0);
  q.push(5, 11, 0);
  q.push(5, 12, 0);
  EXPECT_EQ(q.pop().kind, 10u);
  // Pushes at the current time (5, just popped) interleave correctly with
  // the remaining time-5 events: insertion order still wins.
  q.push(5, 13, 0);
  EXPECT_EQ(q.pop().kind, 11u);
  EXPECT_EQ(q.pop().kind, 12u);
  EXPECT_EQ(q.pop().kind, 13u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameCyclePushDuringDrain) {
  // The ready/issue/complete chains push at the time of the event being
  // handled — the fast-path case. Order must stay (time, insertion).
  EventQueue q;
  q.push(0, 1, 0);
  q.push(0, 2, 0);
  std::vector<u32> kinds;
  while (!q.empty()) {
    const Event e = q.pop();
    kinds.push_back(e.kind);
    if (e.kind < 3) q.push(e.time, e.kind + 10, 0);
  }
  EXPECT_EQ(kinds, (std::vector<u32>{1, 2, 11, 12}));
}

/// Reference model: a stable-sorted vector popped from the front. Stable
/// sort on time alone == (time, insertion order), the documented contract.
class ReferenceQueue {
 public:
  void push(Cycle time, u32 kind, u64 payload) {
    events_.push_back(Event{time, seq_++, kind, payload});
  }
  bool empty() const { return events_.empty(); }
  /// Whether push(time) followed by pop() would return the pushed event:
  /// it takes the largest seq, so every pending event must be later.
  bool pops_next(Cycle time) const {
    return std::all_of(events_.begin(), events_.end(),
                       [time](const Event& e) { return e.time > time; });
  }
  Event pop() {
    auto it = std::min_element(events_.begin(), events_.end(),
                               [](const Event& a, const Event& b) {
                                 if (a.time != b.time) return a.time < b.time;
                                 return a.seq < b.seq;
                               });
    const Event e = *it;
    events_.erase(it);
    return e;
  }

 private:
  std::vector<Event> events_;
  u64 seq_ = 0;
};

TEST(EventQueue, DifferentialAgainstReferenceModel) {
  // Random mixed push/pop workload shaped like the simulators': most pushes
  // land at or near the current time (exercising the same-cycle fast path
  // and its interaction with same-time heap entries), a few far ahead. One
  // queue serves several region epochs, as a machine's does: each epoch
  // drains, re-anchors, and restarts time at 0 against a fresh reference.
  Prng rng(0xec1122u);
  EventQueue q;
  u32 next_kind = 1;
  for (int epoch = 0; epoch < 4; ++epoch) {
    q.start_region();
    ReferenceQueue ref;
    Cycle now = 0;
    for (int step = 0; step < 5000; ++step) {
      if (!q.empty() && rng.below(100) < 55) {
        const Event a = q.pop();
        const Event b = ref.pop();
        ASSERT_EQ(a.time, b.time) << "epoch " << epoch << " step " << step;
        ASSERT_EQ(a.kind, b.kind) << "epoch " << epoch << " step " << step;
        ASSERT_EQ(a.payload, b.payload)
            << "epoch " << epoch << " step " << step;
        now = a.time;
      } else {
        const u64 roll = rng.below(100);
        Cycle time = now;
        if (roll >= 60) time = now + rng.below(5);          // near future
        if (roll >= 90) time = now + 100 + rng.below(500);  // far future
        if (roll < 3 && now > 0) time = now - 1;            // past (legal)
        const u32 kind = next_kind++;
        q.push(time, kind, kind * 3);
        ref.push(time, kind, kind * 3);
      }
      ASSERT_EQ(q.empty(), ref.empty());
    }
    while (!q.empty()) {
      const Event a = q.pop();
      const Event b = ref.pop();
      ASSERT_EQ(a.time, b.time) << "epoch " << epoch;
      ASSERT_EQ(a.kind, b.kind) << "epoch " << epoch;
    }
    EXPECT_TRUE(ref.empty());
  }
}

TEST(EventQueue, RegionRestartStaysOffTheHeap) {
  // Every run_region() restarts simulated time at 0. A long first region
  // followed by shorter ones (Shiloach-Vishkin's graft/shortcut rounds) must
  // find the same FIFO and bucket fast paths as the first: start_region()
  // re-anchors the window, so no event of a later epoch is a "past" push.
  // Each event spawns one successor at the same cycle or a bounded latency
  // ahead, the way ready/issue/complete chains do.
  EventQueue q;
  auto run_epoch = [&q](Cycle horizon, u32 seed) {
    Prng rng(seed);
    ReferenceQueue ref;
    for (u32 s = 0; s < 64; ++s) {  // region fork: one event per stream
      q.push(8, s, s);
      ref.push(8, s, s);
    }
    u32 next_kind = 64;
    while (!q.empty()) {
      const Event a = q.pop();
      const Event b = ref.pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.kind, b.kind);
      if (a.time >= horizon) continue;
      const Cycle t = rng.below(2) == 0 ? a.time : a.time + 1 + rng.below(100);
      q.push(t, next_kind, 0);
      ref.push(t, next_kind, 0);
      ++next_kind;
    }
    EXPECT_TRUE(ref.empty());
  };

  q.start_region();
  run_epoch(20000, 1);  // the long first region: times run past 10 000
  for (u32 epoch = 0; epoch < 3; ++epoch) {
    const u64 before = q.heap_pushes();
    q.start_region();
    run_epoch(2000, 2 + epoch);
    EXPECT_EQ(q.heap_pushes(), before) << "epoch " << epoch + 1;
  }
}

TEST(EventQueue, StartRegionRejectsPendingEvents) {
  EventQueue q;
  q.push(3, 1, 0);
  try {
    q.start_region();
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("stale events"), std::string::npos);
  }
}

TEST(EventQueue, HeapPushesCountOnlyTheOverflowLevel) {
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  EventQueue q;
  q.push(0, 1, 0);     // same-cycle FIFO
  q.push(5, 2, 0);     // bucket wheel
  q.push(kWin, 3, 0);  // beyond the window: heap
  EXPECT_EQ(q.heap_pushes(), 1u);
  while (!q.empty()) (void)q.pop();
  q.push(kWin - 1, 4, 0);  // the past, relative to now_ = kWin: heap
  EXPECT_EQ(q.heap_pushes(), 2u);
}

TEST(EventQueue, DifferentialAcrossBucketWindowBoundary) {
  // Stress the two-level split: pushes land exactly at, just inside, and
  // just beyond the bucket window [win_base, win_base + kBuckets), plus
  // deep-future and past times, so events migrate between the bucket ring
  // and the overflow heap while interleaving with same-cycle FIFO traffic.
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  Prng rng(0xb0c4e7u);
  EventQueue q;
  ReferenceQueue ref;
  Cycle now = 0;
  u32 next_kind = 1;
  for (int step = 0; step < 30000; ++step) {
    if (!q.empty() && rng.below(100) < 55) {
      const Event a = q.pop();
      const Event b = ref.pop();
      ASSERT_EQ(a.time, b.time) << "step " << step;
      ASSERT_EQ(a.kind, b.kind) << "step " << step;
      now = a.time;
    } else {
      Cycle time = now;
      switch (rng.below(8)) {
        case 0: time = now; break;                          // same cycle
        case 1: time = now + 1 + rng.below(16); break;      // near future
        case 2: time = now + kWin - 2 + rng.below(4); break;  // window edge
        case 3: time = now + kWin + rng.below(64); break;   // just overflow
        case 4: time = now + 10 * kWin + rng.below(1000); break;  // deep
        case 5:  // past, including beyond the window's trailing edge
          time = now > 2 * kWin ? now - kWin - rng.below(64) : 0;
          break;
        default: time = now + rng.below(kWin); break;       // anywhere in win
      }
      const u32 kind = next_kind++;
      q.push(time, kind, kind);
      ref.push(time, kind, kind);
    }
    ASSERT_EQ(q.empty(), ref.empty());
  }
  while (!q.empty()) {
    const Event a = q.pop();
    const Event b = ref.pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.kind, b.kind);
  }
  EXPECT_TRUE(ref.empty());
}

TEST(EventQueue, TakeIfNextDifferentialAgainstReferenceModel) {
  // take_if_next(t) is a fused push(t) + pop(): it must answer true exactly
  // when that pop would return the pushed event, and must leave the queue in
  // the state that pop would have, so every later pop still matches the
  // reference. Times cover the same cycle, the near future, both sides of
  // the bucket window's edge, the deep future and the past; each epoch
  // drains and restarts at time 0 through start_region(). Short queues make
  // true answers common, as on an SMP whose processors mostly idle.
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  Prng rng(0xf05edu);
  EventQueue q;
  u32 next_kind = 1;
  u64 pushes = 0;
  u64 taken = 0;
  u64 refused = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    q.start_region();
    ReferenceQueue ref;
    Cycle now = 0;
    auto pick_time = [&]() -> Cycle {
      switch (rng.below(8)) {
        case 0: return now;
        case 1: return now + 1 + rng.below(16);
        case 2: return now + kWin - 2 + rng.below(4);
        case 3: return now + kWin + rng.below(64);
        case 4: return now + 10 * kWin + rng.below(1000);
        case 5: return now > 2 * kWin ? now - kWin - rng.below(64)
                                      : now / 2;
        default: return now + rng.below(kWin);
      }
    };
    for (int step = 0; step < 8000; ++step) {
      const u64 roll = rng.below(100);
      if (!q.empty() && roll < 40) {
        const Event a = q.pop();
        const Event b = ref.pop();
        ASSERT_EQ(a.time, b.time) << "epoch " << epoch << " step " << step;
        ASSERT_EQ(a.kind, b.kind) << "epoch " << epoch << " step " << step;
        now = a.time;
      } else if (roll < 70) {
        const Cycle time = pick_time();
        const bool expect = ref.pops_next(time);
        ASSERT_EQ(q.take_if_next(time), expect)
            << "epoch " << epoch << " step " << step << " time " << time;
        if (expect) {
          ++taken;
          now = time;
        } else {
          ++refused;
        }
      } else {
        const Cycle time = pick_time();
        const u32 kind = next_kind++;
        q.push(time, kind, kind);
        ref.push(time, kind, kind);
        ++pushes;
      }
      ASSERT_EQ(q.empty(), ref.empty());
    }
    while (!q.empty()) {
      const Event a = q.pop();
      const Event b = ref.pop();
      ASSERT_EQ(a.time, b.time) << "epoch " << epoch;
      ASSERT_EQ(a.kind, b.kind) << "epoch " << epoch;
    }
    EXPECT_TRUE(ref.empty());
  }
  EXPECT_GT(taken, 1000u);
  EXPECT_GT(refused, 1000u);
  EXPECT_EQ(q.fused(), taken);
  EXPECT_EQ(q.pushes(), pushes);  // a fused event consumes no seq
}

TEST(EventQueue, TakeIfNextYieldsToSameTimeEvents) {
  // A same-time event already queued pops before a new push at that time,
  // whichever level holds it.
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  EventQueue q;
  q.push(0, 1, 0);  // FIFO, at now
  EXPECT_FALSE(q.take_if_next(0));
  EXPECT_EQ(q.pop().kind, 1u);
  q.push(7, 2, 0);  // bucket
  EXPECT_FALSE(q.take_if_next(7));
  EXPECT_TRUE(q.take_if_next(6));
  EXPECT_EQ(q.pop().kind, 2u);
  q.push(7 + 2 * kWin, 3, 0);  // heap
  EXPECT_FALSE(q.take_if_next(7 + 2 * kWin));
  EXPECT_TRUE(q.take_if_next(7 + 2 * kWin - 1));
  // The window now sits at the taken time, so a push one cycle later is a
  // same-window bucket push, not a heap push.
  const u64 heap_before = q.heap_pushes();
  q.push(7 + 2 * kWin, 4, 0);
  EXPECT_EQ(q.heap_pushes(), heap_before);
  EXPECT_EQ(q.pop().kind, 3u);
  EXPECT_EQ(q.pop().kind, 4u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.fused(), 2u);
  EXPECT_EQ(q.pushes(), 4u);
}

TEST(EventQueue, SameCycleOrderingAcrossLevels) {
  // Same-time events must pop in insertion order even when some were pushed
  // while that time was beyond the window (heap) and some after it entered
  // the window (bucket).
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  EventQueue q;
  const Cycle t = kWin + 50;
  q.push(t, 1, 0);    // beyond window -> overflow heap
  q.push(t, 2, 0);    // also heap
  q.push(kWin, 9, 0);  // advances the window past t when popped
  EXPECT_EQ(q.pop().kind, 9u);
  q.push(t, 3, 0);  // t now in window -> bucket ring
  q.push(t, 4, 0);
  EXPECT_EQ(q.pop().kind, 1u);
  EXPECT_EQ(q.pop().kind, 2u);
  EXPECT_EQ(q.pop().kind, 3u);
  EXPECT_EQ(q.pop().kind, 4u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SizeTracksFastPathAndHeap) {
  EventQueue q;
  q.push(0, 1, 0);  // fast path (now_ starts at 0)
  q.push(7, 2, 0);  // heap
  q.push(0, 3, 0);  // fast path
  EXPECT_EQ(q.size(), 3u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().kind, 2u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace archgraph::sim
