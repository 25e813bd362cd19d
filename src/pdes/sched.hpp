// Cache-friendly per-LP event scheduling for the conservative engine.
//
// EventSched replaces the former std::priority_queue<Event>: a 4-ary
// min-heap of compact 24-byte (time, seq, slot) keys over a slab arena of
// event payloads. Sift operations move only the small keys, the payloads
// never move, and freed arena slots are recycled, so a steady-state run
// performs no allocator traffic at all after warm-up. min_time() is a
// single load, which turns Engine::next_event_floor() into a plain scan of
// per-LP fields instead of a walk over priority-queue tops.
//
// Pop order is the strict total order (time, seq) — seq is unique within
// an LP — so execution order is independent of the heap's internal shape
// and of which executor (sequential or threaded) drives the LP. That
// property is what lets the engine swap heap layouts without perturbing
// the bit-exact event trace.
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

namespace massf {

class EventSched {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest pending event; kSimTimeMax when empty.
  SimTime min_time() const {
    return heap_.empty() ? kSimTimeMax : heap_[0].time;
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
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.push_back(ev);
    } else {
      slot = free_.back();
      free_.pop_back();
      arena_[slot] = ev;
    }
    heap_.push_back(Key{ev.time, ev.seq, slot});
    sift_up(heap_.size() - 1);
    peak_ = std::max(peak_, heap_.size());
  }

  /// Earliest event by (time, seq). The reference is invalidated by the
  /// next push or pop — copy before handling.
  const Event& top() const {
    MASSF_DCHECK(!heap_.empty());
    return arena_[heap_[0].slot];
  }

  void pop() {
    MASSF_DCHECK(!heap_.empty());
    free_.push_back(heap_[0].slot);
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_[0] = last;
      sift_down(0);
    }
  }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const Key& x, const Key& y) {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  void sift_down(std::size_t i) {
    const Key k = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], k)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = k;
  }

  std::vector<Key> heap_;
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
