// A 4-ary min-heap of unsigned 128-bit keys: the one priority queue of the
// engine's per-LP event scheduler (pdes/sched.hpp) and of OSPF's
// shortest-path trees (routing/ospf.cpp).
//
// A caller packs its whole order into the key — (time, seq, slot) for an
// event, (distance, router) for a tree — so the heap compares plain
// integers and never calls back into a comparator, and equal keys are
// equal entries: pop order is a function of the keys pushed, not of the
// heap's shape.
//
// Sift-down picks the least of a full group of four children with three
// compares that compile to carry-flag arithmetic and conditional moves:
// the two pairs, then the two winners, reloaded by index. Descending a
// level costs no data-dependent branch but the one that stops the
// descent; only a partial last group walks its children in a loop.
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace massf {

class QuadHeap {
 public:
  using Key = unsigned __int128;

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  void reserve(std::size_t n) { keys_.reserve(n); }
  void clear() { keys_.clear(); }

  /// The least key; the heap must not be empty.
  Key top() const {
    MASSF_DCHECK(!keys_.empty());
    return keys_[0];
  }

  void push(Key k) {
    std::size_t i = keys_.size();
    keys_.push_back(k);
    Key* const h = keys_.data();
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!(k < h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = k;
  }

  /// Removes the least key and returns it; the heap must not be empty.
  Key pop() {
    MASSF_DCHECK(!keys_.empty());
    const Key least = keys_[0];
    const Key last = keys_.back();
    keys_.pop_back();
    if (!keys_.empty()) sift_down(last);
    return least;
  }

 private:
  // Moves the hole at the root down to where `k` belongs, then fills it.
  void sift_down(Key k) {
    Key* const h = keys_.data();
    const std::size_t n = keys_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      std::size_t best;
      if (first + 4 <= n) {
        const std::size_t lo = first + (h[first + 1] < h[first]);
        const std::size_t hi = first + 2 + (h[first + 3] < h[first + 2]);
        best = h[hi] < h[lo] ? hi : lo;
      } else {
        if (first >= n) break;
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (h[c] < h[best]) best = c;
        }
      }
      if (!(h[best] < k)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = k;
  }

  std::vector<Key> keys_;
};

}  // namespace massf
