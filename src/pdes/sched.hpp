// Cache-friendly per-LP event scheduling for the conservative engine.
//
// EventSched is a 4-ary min-heap (util/quad_heap.hpp) of one 16-byte key
// per pending event over a slab arena of event payloads. The key packs the
// whole pop order into one unsigned 128-bit integer:
//
//   (uint64(time) ^ 2^63) << 64  |  seq << 24  |  slot
//
// The sign bias makes the unsigned compare of the high word order signed
// times; the low word orders equal times by seq and carries the payload's
// arena slot, which the order never reaches because seq is unique within
// an LP. seq must stay below 2^40 (an LP's lifetime count of events) and
// slot below 2^24 (its pending events at once); push checks both. Sift
// operations move only keys, the payloads never move, and freed arena
// slots are recycled, so a steady-state run performs no allocator traffic
// at all after warm-up. min_time() is a single load, which turns
// Engine::next_event_floor() into a plain scan of per-LP fields instead of
// a walk over priority-queue tops.
//
// Pop order is the strict total order (time, seq), so execution order is
// independent of the heap's internal shape and of which executor
// (sequential or threaded) drives the LP. That property is what lets the
// engine swap heap layouts without perturbing the bit-exact event trace.
//
// Outbox buffers one source LP's cross-LP sends, one bucket per
// destination: each send is appended to its bucket in send order, and the
// barrier merge drains, for each destination, the source LPs in id order
// and each bucket in send order. For any destination that traversal visits
// events in exactly the order the old src-major flat walk did, so the seq
// values assigned at delivery — and therefore the event trace — are
// unchanged, while the per-destination grouping lets worker threads claim
// destinations and merge them concurrently. Buckets are dense (one per LP,
// indexed by id), so a send and a merge's bucket lookup are O(1) whatever
// the source's out-degree; the engine learns which sources to visit from
// its per-destination sender masks (engine.hpp), not from the buckets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pdes/event.hpp"
#include "util/check.hpp"
#include "util/quad_heap.hpp"

namespace massf {

class EventSched {
 public:
  /// Bounds of the packed key's fields: an LP's event seq and its arena
  /// slot (pending events at once).
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;
  static constexpr std::uint64_t kSlotLimit = std::uint64_t{1} << 24;

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest pending event; kSimTimeMax when empty.
  SimTime min_time() const {
    if (heap_.empty()) return kSimTimeMax;
    return static_cast<SimTime>(
        static_cast<std::uint64_t>(heap_.top() >> 64) ^ kTimeBias);
  }

  /// Deepest the heap has been over the scheduler's lifetime.
  std::size_t peak_size() const { return peak_; }
  /// Payload slots ever allocated (arena high-water mark).
  std::size_t arena_slots() const { return arena_.size(); }

  void reserve(std::size_t n) {
    heap_.reserve(n);
    arena_.reserve(n);
    free_.reserve(n);
  }

  /// Inserts an event (seq must already be assigned by the engine).
  void push(const Event& ev) {
    MASSF_CHECK(ev.seq < kSeqLimit && "event seq must be below 2^40");
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.push_back(ev);
    } else {
      slot = free_.back();
      free_.pop_back();
      arena_[slot] = ev;
    }
    MASSF_CHECK(slot < kSlotLimit &&
                "an LP may hold at most 2^24 pending events");
    const std::uint64_t time = static_cast<std::uint64_t>(ev.time) ^ kTimeBias;
    heap_.push(QuadHeap::Key{time} << 64 | QuadHeap::Key{ev.seq << 24 | slot});
    peak_ = std::max(peak_, heap_.size());
  }

  /// Earliest event by (time, seq). The reference is invalidated by the
  /// next push or pop — copy before handling.
  const Event& top() const { return arena_[slot_of(heap_.top())]; }

  void pop() { free_.push_back(slot_of(heap_.pop())); }

 private:
  static constexpr std::uint64_t kTimeBias = std::uint64_t{1} << 63;

  static std::uint32_t slot_of(QuadHeap::Key k) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(k) &
                                      (kSlotLimit - 1));
  }

  QuadHeap heap_;
  std::vector<Event> arena_;          // stable payload slots
  std::vector<std::uint32_t> free_;   // recycled arena slots
  std::size_t peak_ = 0;
};

class Outbox {
 public:
  /// Sizes the dense bucket table for `num_lps` destinations. Existing
  /// buckets keep their contents and capacity.
  void resize(std::size_t num_lps) { buckets_.resize(num_lps); }

  /// Buffers a cross-LP send (ev.lp is the destination, < the resized LP
  /// count) at the end of its destination's bucket. Returns true when it is
  /// the window's first send to that destination.
  bool add(const Event& ev) {
    MASSF_DCHECK(static_cast<std::size_t>(ev.lp) < buckets_.size());
    std::vector<Event>& bucket = buckets_[static_cast<std::size_t>(ev.lp)];
    bucket.push_back(ev);
    ++total_;
    if (bucket.size() > 1) return false;
    touched_.push_back(ev.lp);
    return true;
  }

  /// The buffered sends for `dst` in send order (empty if none).
  const std::vector<Event>& bucket(LpId dst) const {
    return buckets_[static_cast<std::size_t>(dst)];
  }

  /// Buffered events this window (all destinations).
  std::size_t total() const { return total_; }

  /// Non-empty (src,dst) buffers this window.
  std::size_t batches() const { return touched_.size(); }

  /// Empties the buckets touched this window, keeping their capacity for
  /// the next one.
  void clear() {
    for (const LpId dst : touched_) {
      buckets_[static_cast<std::size_t>(dst)].clear();
    }
    touched_.clear();
    total_ = 0;
  }

 private:
  std::vector<std::vector<Event>> buckets_;  // indexed by destination LP
  std::vector<LpId> touched_;  // destinations with a non-empty bucket
  std::size_t total_ = 0;
};

}  // namespace massf
