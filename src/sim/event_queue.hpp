// Deterministic discrete-event queue.
//
// All three machine models pop events in (time, insertion-order) order, so
// every simulation is bit-for-bit reproducible: ties never resolve by
// container whim. Payload interpretation belongs to the machines. The pop
// order is a pure function of the push sequence, so any internally different
// but contract-honoring implementation yields bit-identical simulations.
//
// This is the simulators' hottest structure (every completion and retry,
// and the GPU's ready and issue events, pass through it), so it is a
// three-level scheduler ordered by how hot each path is in the machine
// models:
//
//   * Same-cycle FIFO: many events are scheduled *at the current simulation
//     time* (ready/issue chains tie on "now") and go to a plain
//     contiguous vector — one buffer, reused forever, no ordering work.
//     Correct because every such event's seq is larger than any same-time
//     event already deeper in the queue, and pop() compares level fronts by
//     (time, seq) anyway. The one corner where appending would break the
//     FIFO's order — a push into the past moved "now" backwards under a
//     non-empty FIFO — is detected on push and routed to the heap.
//   * Bucket wheel: near-future events — memory completions at +lat_mem,
//     next-cycle issue slots — land in a ring of kBuckets one-cycle slots
//     covering [win_base_, win_base_ + kBuckets), where win_base_ is the
//     running maximum of popped times. O(1) push and pop. Slots are
//     singly-linked lists of nodes in one pooled arena with a LIFO freelist,
//     so the steady-state working set is a handful of hot nodes, not
//     kBuckets scattered vectors. A slot never mixes times: while a time is
//     inside the window its slot holds that time only (pop() always returns
//     the minimum, so win_base_ cannot pass a still-bucketed time), appended
//     in push order, which IS (time, seq) order. An occupancy bitmap finds
//     the earliest non-empty slot in a few word scans.
//   * Binary heap (reserved vector, std::push_heap/pop_heap): the overflow
//     level for far-future events (deep bank convoys, SMP barrier spans,
//     oversubscription quanta) and pushes into the past (legal, exercised by
//     the differential test).
//
// pop() compares the three level fronts by (time, seq), so the levels
// interleave exactly like one totally ordered queue.
//
// External events: a machine may keep some events outside the queue (the
// SMP keeps each processor's one pending dispatch in a slot of its own) and
// still order them against queued ones. It stamps such an event with
// draw_seq() where it would have pushed it, so the event sorts among queued
// events exactly as that push would have, and handles it once no queued
// event precedes its (time, seq) (pending_before()). take_external() then
// moves the queue's clock as popping it would have. Pop order depends only
// on the relative order of (time, seq) keys, which drawing instead of
// pushing leaves unchanged.
//
// Cycle-driven consumption: the MTA walks simulated cycles rather than
// events. front_time() gives the earliest queued time, and pop_due(t) pops
// the front only if it is due by cycle t, so events still leave in (time,
// seq) order. When nothing is due, pop_due moves the queue's clock up to t,
// which keeps the bucket window anchored near the caller's cycle through
// stretches without pops.
//
// Region epochs: every Machine::run_region() restarts simulated time at 0,
// and the FIFO/bucket tests are relative to now_ and win_base_. Each
// simulate() therefore opens its region with start_region(), which requires
// the queue to be drained and re-anchors both to 0. Without it every region
// shorter than the longest one before it pushes "into the past" and the
// whole region runs through the heap. Re-anchoring an empty queue cannot
// change pop order: that is a function of the push sequence alone.
//
// tests/sim/event_queue_test.cpp runs randomized differential checks against
// a reference model, including past-time pushes, window-boundary times, and
// same-cycle ordering across levels.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "common/check.hpp"
#include "sim/types.hpp"

namespace archgraph::sim {

struct Event {
  Cycle time = 0;
  u64 seq = 0;   // insertion order, breaks time ties deterministically
  u32 kind = 0;  // machine-defined
  u64 payload = 0;
};

class EventQueue {
 public:
  /// Near-future window in cycles. Covers every bounded op latency in the
  /// three machine models (MTA lat_mem ~100, GPU lat_mem ~300, SMP cache
  /// walks ~200); longer spans overflow to the heap.
  static constexpr usize kBuckets = 512;

  EventQueue() {
    heap_.reserve(64);
    fifo_.reserve(64);
    pool_.reserve(64);
    slot_head_.fill(kNil);
  }

  /// Opens a region epoch: the queue must be drained (a region ends only
  /// when its last event has popped), and time restarts at 0. Draining
  /// already reset the FIFO and emptied every bucket slot.
  void start_region() {
    AG_CHECK(empty(), "stale events from a previous region");
    now_ = 0;
    win_base_ = 0;
  }

  /// Pushes that took the overflow heap (far-future or past-time events),
  /// cumulative over the queue's lifetime. Read-only diagnostics: nothing
  /// simulated depends on it.
  u64 heap_pushes() const { return heap_pushes_; }
  /// Events pushed, and external events handled (take_external()),
  /// cumulative over the queue's lifetime. Diagnostics too; a drawn seq is
  /// not a push.
  u64 pushes() const { return next_seq_ - drawn_; }
  u64 fused() const { return fused_; }

  void push(Cycle time, u32 kind, u64 payload) {
    // Hottest path: the FIFO must stay sorted by (time, seq). Appending
    // keeps it so except after a push into the past moved now_ backwards
    // while later-time events sit in the FIFO — that corner takes the heap
    // instead.
    if (time == now_ &&
        (fifo_head_ == fifo_.size() || fifo_.back().time <= time)) {
      fifo_.push_back(Event{time, next_seq_++, kind, payload});
      return;
    }
    if (static_cast<u64>(time - win_base_) < kBuckets) {
      // Near future: O(1) append to the slot's node list. All nodes already
      // in this slot share this time, so append order is (time, seq) order.
      const u32 idx = alloc_node(Event{time, next_seq_++, kind, payload});
      const usize s = static_cast<usize>(time) & kSlotMask;
      if (slot_head_[s] == kNil) {
        slot_head_[s] = idx;
        occupied_[s >> 6] |= u64{1} << (s & 63);
      } else {
        pool_[slot_tail_[s]].next = idx;
      }
      slot_tail_[s] = idx;
      ++bucket_count_;
      return;
    }
    // Far future or past: the overflow heap.
    ++heap_pushes_;
    heap_.push_back(Event{time, next_seq_++, kind, payload});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Insertion seq for an event the caller keeps outside the queue: larger
  /// than every seq drawn or pushed before, smaller than every later one.
  u64 draw_seq() {
    ++drawn_;
    return next_seq_++;
  }

  /// True iff some queued event precedes (time, seq), i.e. would pop before
  /// an event with that key.
  bool pending_before(Cycle time, u64 seq) const {
    const Event key{time, seq, 0, 0};
    if (fifo_head_ != fifo_.size() && earlier(fifo_[fifo_head_], key)) {
      return true;
    }
    if (bucket_count_ != 0 &&
        earlier(pool_[slot_head_[front_slot()]].e, key)) {
      return true;
    }
    return !heap_.empty() && earlier(heap_[0], key);
  }

  /// The caller handles its external event (time, seq), which no queued
  /// event precedes: now_ and win_base_ move exactly as popping it would
  /// move them, and fused() counts it.
  void take_external(Cycle time, u64 seq) {
    AG_DCHECK(!pending_before(time, seq),
              "take_external() would overtake a queued event");
    (void)seq;
    ++fused_;
    advance_to(time);
  }

  bool empty() const {
    return fifo_head_ == fifo_.size() && bucket_count_ == 0 && heap_.empty();
  }
  usize size() const {
    return (fifo_.size() - fifo_head_) + bucket_count_ + heap_.size();
  }

  /// Time of the earliest queued event; the queue must be non-empty. As in
  /// pop(), only the heap (a past-time push) can hold an event earlier than
  /// a non-empty FIFO's front.
  Cycle front_time() const {
    AG_DCHECK(!empty(), "front_time() on an empty EventQueue");
    if (fifo_head_ == fifo_.size() && bucket_count_ == 0) {
      return heap_[0].time;
    }
    const Cycle t = fifo_head_ != fifo_.size()
                        ? fifo_[fifo_head_].time
                        : pool_[slot_head_[front_slot()]].e.time;
    return heap_.empty() ? t : std::min(t, heap_[0].time);
  }

  /// Cycle-driven consumption (the MTA's issue loop): pops the earliest
  /// event into `out` and returns true if it is due by `t` (time <= t).
  /// Otherwise every queued event is later than `t`, so the queue's clock
  /// moves up to `t` as a pop at `t` would move it, keeping the bucket
  /// window anchored near the caller's cycle; returns false.
  bool pop_due(Cycle t, Event& out) {
    if (fifo_head_ == fifo_.size() && heap_.empty()) {
      // The issue loop's steady state: only the bucket wheel holds events,
      // so its front slot is the front.
      if (bucket_count_ != 0) {
        const usize s = front_slot();
        if (pool_[slot_head_[s]].e.time <= t) {
          out = take_slot(s);
          return true;
        }
      }
    } else if (front_time() <= t) {
      out = pop();
      return true;
    }
    if (t > now_) {
      advance_to(t);
    }
    return false;
  }

  Event pop() {
    // FIFO fast path. A FIFO event was pushed at a now_ the queue had
    // already reached, and pops are monotone over the pending minimum, so
    // the FIFO front's *time* is the global minimum: a strictly earlier
    // bucket or heap event would have been popped before now_ ever reached
    // that time (past-time pushes go to the heap, never the bucket). The
    // only events that can precede it are same-time earlier-seq ones, and a
    // same-time bucket event must live in the front's own slot (a slot
    // never mixes times while its time is in the window) — so one slot probe
    // plus one heap-front compare decides the pop with no bitmap scan.
    if (fifo_head_ < fifo_.size()) {
      const Event& f = fifo_[fifo_head_];
      bool fifo_wins = true;
      if (bucket_count_ != 0) {
        const u32 h = slot_head_[static_cast<usize>(f.time) & kSlotMask];
        if (h != kNil && earlier(pool_[h].e, f)) fifo_wins = false;
      }
      if (fifo_wins && !heap_.empty() && earlier(heap_[0], f)) {
        fifo_wins = false;
      }
      if (fifo_wins) {
        const Event e = f;
        if (++fifo_head_ == fifo_.size()) {
          fifo_.clear();
          fifo_head_ = 0;
        }
        return popped(e);
      }
    }
    // Bucket level: the earliest slot in window order — right at the base,
    // or the bitmap scan finds it. Yields only to an earlier heap front
    // (past-time pushes and window-boundary ties).
    if (bucket_count_ != 0) {
      const usize s = front_slot();
      if (heap_.empty() || !earlier(heap_[0], pool_[slot_head_[s]].e)) {
        return take_slot(s);
      }
    }
    AG_DCHECK(!heap_.empty(), "pop() on an empty EventQueue");
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event e = heap_.back();
    heap_.pop_back();
    return popped(e);
  }

 private:
  static constexpr usize kSlotMask = kBuckets - 1;
  static constexpr usize kBitmapWords = kBuckets / 64;
  static constexpr u32 kNil = ~u32{0};
  static_assert((kBuckets & kSlotMask) == 0, "kBuckets must be a power of 2");

  struct Node {
    Event e;
    u32 next = kNil;
  };

  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Min-heap comparator ("a sorts after b") for the std heap algorithms —
  /// libstdc++'s sift-to-leaf-then-up pop does fewer comparisons than the
  /// textbook early-exit sift-down, and measurably wins on the heap-heavy
  /// regime in bench/micro_sim_hotpath.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return earlier(b, a);
    }
  };

  void advance_to(Cycle time) {
    now_ = time;
    if (time > win_base_) win_base_ = time;  // monotone window anchor
  }

  Event popped(const Event& e) {
    advance_to(e.time);
    return e;
  }

  /// Pops the head of bucket slot `s`, which must hold the earliest event.
  Event take_slot(usize s) {
    const u32 idx = slot_head_[s];
    const Event e = pool_[idx].e;
    if ((slot_head_[s] = pool_[idx].next) == kNil) {
      occupied_[s >> 6] &= ~(u64{1} << (s & 63));
    }
    pool_[idx].next = free_head_;  // LIFO reuse keeps the hot set small
    free_head_ = idx;
    --bucket_count_;
    return popped(e);
  }

  /// The slot holding the earliest bucketed event: the window base's own
  /// slot, or the first occupied one after it. Needs bucket_count_ > 0.
  usize front_slot() const {
    usize s = static_cast<usize>(win_base_) & kSlotMask;
    if (slot_head_[s] == kNil) {
      s = next_occupied(s);
    }
    return s;
  }

  u32 alloc_node(const Event& e) {
    if (free_head_ != kNil) {
      const u32 idx = free_head_;
      free_head_ = pool_[idx].next;
      pool_[idx] = Node{e, kNil};
      return idx;
    }
    pool_.push_back(Node{e, kNil});
    return static_cast<u32>(pool_.size() - 1);
  }

  /// First non-empty slot at circular distance >= 1 from `s` (window order).
  /// Only called with bucket_count_ > 0 and slot `s` empty, so some bit is
  /// set and the scan terminates.
  usize next_occupied(usize s) const {
    usize w = s >> 6;
    u64 word = occupied_[w] & (~u64{0} << (s & 63));
    while (word == 0) {
      w = (w + 1) & (kBitmapWords - 1);
      word = occupied_[w];
    }
    return (w << 6) + static_cast<usize>(std::countr_zero(word));
  }

  std::vector<Event> heap_;  // overflow level: far-future + past-time events
  std::vector<Event> fifo_;  // events at time now_, already in seq order
  usize fifo_head_ = 0;
  std::vector<Node> pool_;   // bucket nodes; LIFO freelist via free_head_
  u32 free_head_ = kNil;
  std::array<u32, kBuckets> slot_head_;
  std::array<u32, kBuckets> slot_tail_;  // valid only when slot occupied
  std::array<u64, kBitmapWords> occupied_{};
  usize bucket_count_ = 0;
  Cycle now_ = 0;       // time of the most recently popped event
  Cycle win_base_ = 0;  // running max of popped times (window anchor)
  u64 next_seq_ = 0;
  u64 drawn_ = 0;  // seqs handed out by draw_seq(), not pushes
  u64 heap_pushes_ = 0;
  u64 fused_ = 0;
};

}  // namespace archgraph::sim
