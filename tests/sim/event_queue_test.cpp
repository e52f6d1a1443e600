#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
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
  /// A seq for an event kept outside the queue, from the same counter.
  u64 draw_seq() { return seq_++; }
  /// Whether some pending event sorts before (time, seq).
  bool pending_before(Cycle time, u64 seq) const {
    return std::any_of(events_.begin(), events_.end(), [&](const Event& e) {
      return e.time != time ? e.time < time : e.seq < seq;
    });
  }
  Cycle front_time() const {
    Cycle t = events_.front().time;
    for (const Event& e : events_) t = std::min(t, e.time);
    return t;
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

TEST(EventQueue, CycleLoopDifferentialAgainstReferenceModel) {
  // Cycle-driven consumption, as the MTA's issue loop drives the queue: at
  // each cycle t take every due event with pop_due(t), where handling one
  // pushes completions up to ~600 cycles ahead, a same-cycle event now and
  // then, and rarely an event in the past, which rewinds t to it; then
  // jump t ahead by a few cycles or to the queue front. pop_due must hand
  // out exactly the reference's (time, seq) order, and front_time() must
  // be the reference's earliest time.
  Prng rng(0x10a9u);
  EventQueue q;
  for (int epoch = 0; epoch < 3; ++epoch) {
    q.start_region();
    ReferenceQueue ref;
    u32 next_kind = 1;
    auto push = [&](Cycle time) {
      const u32 kind = next_kind++;
      q.push(time, kind, kind * 5);
      ref.push(time, kind, kind * 5);
    };
    for (int i = 0; i < 16; ++i) push(static_cast<Cycle>(rng.below(64)));
    Cycle t = 0;
    for (int step = 0; step < 20000 && !ref.empty(); ++step) {
      Event e;
      while (q.pop_due(t, e)) {
        const Event r = ref.pop();
        ASSERT_LE(r.time, t) << "epoch " << epoch << " step " << step;
        ASSERT_EQ(e.time, r.time) << "epoch " << epoch << " step " << step;
        ASSERT_EQ(e.kind, r.kind) << "epoch " << epoch << " step " << step;
        ASSERT_EQ(e.payload, r.payload);
        t = e.time;
        const u64 roll = rng.below(100);
        const auto jitter = static_cast<Cycle>(rng.below(120));
        if (roll < 70) push(t + 1 + jitter);         // a completion
        if (roll >= 40 && roll < 45) push(t + 512 + jitter);  // heap
        if (roll >= 45 && roll < 50) push(t);        // same cycle
        if (roll == 99 && t > 8) push(t - 1 - jitter % 8);  // past: rewind
      }
      ASSERT_TRUE(ref.empty() || ref.front_time() > t) << "step " << step;
      ASSERT_EQ(q.empty(), ref.empty());
      if (ref.empty()) break;
      ASSERT_EQ(q.front_time(), ref.front_time()) << "step " << step;
      if (rng.below(100) < 20) push(t + 1 + static_cast<Cycle>(rng.below(40)));
      t = std::min(ref.front_time(), t + 1 + static_cast<Cycle>(rng.below(3)));
    }
    while (!q.empty()) {
      const Event a = q.pop();
      const Event b = ref.pop();
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

TEST(EventQueue, SlotLoopDifferentialAgainstReferenceModel) {
  // The SMP's run loop keeps one pending event per processor in a slot,
  // stamped with draw_seq(), and handles whichever comes first by
  // (time, seq): the earliest slot or the queue head. Its handled order must
  // equal one queue holding every event (`all`, the design the slots
  // replace), and pending_before() must agree with a reference holding the
  // queued events only (`queued`). Times cover the same cycle, the near
  // future, both sides of the bucket window's edge, the deep future and the
  // past; each epoch drains and restarts at time 0 through start_region().
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  constexpr u32 kSlots = 4;
  constexpr u32 kSlotKind = 1u << 30;  // kinds >= this name a slot
  constexpr Cycle kNever = std::numeric_limits<Cycle>::max();
  struct Slot {
    Cycle time = 0;
    u64 seq = 0;
    bool full = false;
  };
  Prng rng(0xf05edu);
  EventQueue q;
  u32 next_kind = 1;
  u64 pushes = 0;
  u64 slot_events = 0;
  u64 queue_events = 0;
  // The references outlive the epochs, as the queue does, so their seq
  // counters stay aligned with its own.
  ReferenceQueue all;
  ReferenceQueue queued;
  for (int epoch = 0; epoch < 6; ++epoch) {
    q.start_region();
    std::array<Slot, kSlots> slots{};
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
    auto any_slot = [&] {
      return std::any_of(slots.begin(), slots.end(),
                         [](const Slot& s) { return s.full; });
    };
    // One turn of the slot loop; false once nothing is pending anywhere.
    auto step_loop = [&](const std::string& where) -> bool {
      u32 best = kSlots;
      for (u32 p = 0; p < kSlots; ++p) {
        if (slots[p].full &&
            (best == kSlots || slots[p].time < slots[best].time ||
             (slots[p].time == slots[best].time &&
              slots[p].seq < slots[best].seq))) {
          best = p;
        }
      }
      const Cycle t = best == kSlots ? kNever : slots[best].time;
      const u64 seq = best == kSlots ? ~u64{0} : slots[best].seq;
      const bool queue_first = q.pending_before(t, seq);
      EXPECT_EQ(queue_first, queued.pending_before(t, seq)) << where;
      if (queue_first) {
        const Event a = q.pop();
        const Event b = queued.pop();
        const Event c = all.pop();
        EXPECT_EQ(a.time, b.time) << where;
        EXPECT_EQ(a.kind, b.kind) << where;
        EXPECT_EQ(a.time, c.time) << where;
        EXPECT_EQ(a.kind, c.kind) << where;
        now = a.time;
        ++queue_events;
        return true;
      }
      if (best == kSlots) {
        EXPECT_TRUE(q.empty()) << where;
        return false;
      }
      q.take_external(t, seq);
      const Event c = all.pop();
      EXPECT_EQ(c.time, t) << where;
      EXPECT_EQ(c.kind, kSlotKind + best) << where;
      slots[best].full = false;
      now = t;
      ++slot_events;
      return true;
    };
    for (int step = 0; step < 8000; ++step) {
      const std::string where =
          "epoch " + std::to_string(epoch) + " step " + std::to_string(step);
      const u64 roll = rng.below(100);
      if (roll < 45 && (!q.empty() || any_slot())) {
        ASSERT_TRUE(step_loop(where));
      } else if (roll < 70) {
        const u32 p = static_cast<u32>(rng.below(kSlots));
        if (!slots[p].full) {
          const Cycle time = pick_time();
          const u64 seq = q.draw_seq();
          ASSERT_EQ(seq, queued.draw_seq()) << where;
          all.push(time, kSlotKind + p, 0);
          slots[p] = Slot{time, seq, true};
        }
      } else if (roll < 80) {
        // A probe key between the pending ones: pending_before() is a pure
        // question and leaves the queue as it was.
        const Cycle time = pick_time();
        const u64 seq = rng.below(q.pushes() + slot_events + 8);
        ASSERT_EQ(q.pending_before(time, seq), queued.pending_before(time, seq))
            << where << " probe (" << time << ", " << seq << ")";
      } else {
        const Cycle time = pick_time();
        const u32 kind = next_kind++;
        q.push(time, kind, kind);
        queued.push(time, kind, kind);
        all.push(time, kind, kind);
        ++pushes;
      }
    }
    while (step_loop("drain, epoch " + std::to_string(epoch))) {
    }
    ASSERT_TRUE(all.empty());
    ASSERT_TRUE(queued.empty());
  }
  EXPECT_GT(slot_events, 1000u);
  EXPECT_GT(queue_events, 1000u);
  // Every handled event is a push or a slot event; a drawn seq is no push.
  EXPECT_EQ(q.pushes(), pushes);
  EXPECT_EQ(q.fused(), slot_events);
  EXPECT_EQ(q.pushes() + q.fused(), queue_events + slot_events);
}

TEST(EventQueue, DrawnSeqOrdersLikeAPush) {
  // A drawn seq sorts after every event already pushed at the same time,
  // whichever level holds it, and before every later push. take_external()
  // moves the window as a pop would.
  constexpr Cycle kWin = static_cast<Cycle>(EventQueue::kBuckets);
  EventQueue q;
  q.push(0, 1, 0);  // FIFO, at now
  u64 seq = q.draw_seq();
  EXPECT_TRUE(q.pending_before(0, seq));
  EXPECT_EQ(q.pop().kind, 1u);
  EXPECT_FALSE(q.pending_before(0, seq));
  q.take_external(0, seq);
  q.push(7, 2, 0);  // bucket
  seq = q.draw_seq();
  EXPECT_TRUE(q.pending_before(7, seq));
  EXPECT_FALSE(q.pending_before(6, seq));
  q.take_external(6, seq);
  EXPECT_EQ(q.pop().kind, 2u);
  q.push(7 + 2 * kWin, 3, 0);  // heap
  seq = q.draw_seq();
  EXPECT_TRUE(q.pending_before(7 + 2 * kWin, seq));
  EXPECT_FALSE(q.pending_before(7 + 2 * kWin - 1, seq));
  q.take_external(7 + 2 * kWin - 1, seq);
  // The window now sits at the external event's time, so a push one cycle
  // later is a same-window bucket push, not a heap push.
  const u64 heap_before = q.heap_pushes();
  q.push(7 + 2 * kWin, 4, 0);
  EXPECT_EQ(q.heap_pushes(), heap_before);
  EXPECT_EQ(q.pop().kind, 3u);
  EXPECT_EQ(q.pop().kind, 4u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.fused(), 3u);
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
