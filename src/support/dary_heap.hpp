#pragma once
// Flat d-ary max-heap for hot priority queues.
//
// The mapping kernel pops every task through its ready queue once per
// fitness evaluation, so the queue's constant factors are on the hottest
// path of the whole system. A 4-ary heap over a flat entry array beats
// std::push_heap/pop_heap on a binary heap here: half the tree depth
// (fewer cache lines touched per sift), and entries carry their key inline
// (no indirect key lookup in the comparator).
//
// `Better(a, b)` returns true when `a` must pop before `b`. Determinism
// contract: when Better is a strict total order (ties broken by id), the
// pop sequence is the sorted order of the inserted entries regardless of
// internal tree shape — which is what keeps d-ary pops bit-identical to
// the std::make_heap-based queue they replaced.

#include <cstddef>
#include <utility>
#include <vector>

namespace ptgsched {

template <typename Entry, typename Better, unsigned Arity = 4>
class DaryHeap {
  static_assert(Arity >= 2, "DaryHeap: arity must be at least 2");

 public:
  DaryHeap() = default;
  explicit DaryHeap(Better better) : better_(std::move(better)) {}

  void reserve(std::size_t n) { entries_.reserve(n); }
  void clear() noexcept { entries_.clear(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  void push(Entry e) {
    entries_.push_back(e);
    sift_up(entries_.size() - 1);
  }

  /// Remove and return the best entry (heap must be non-empty).
  Entry pop() {
    Entry top = entries_.front();
    Entry last = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) {
      entries_.front() = last;
      sift_down(0);
    }
    return top;
  }

 private:
  void sift_up(std::size_t i) {
    const Entry e = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!better_(e, entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = e;
  }

  void sift_down(std::size_t i) {
    const Entry e = entries_[i];
    const std::size_t n = entries_.size();
    for (;;) {
      const std::size_t first_child = i * Arity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end =
          first_child + Arity < n ? first_child + Arity : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (better_(entries_[c], entries_[best])) best = c;
      }
      if (!better_(entries_[best], e)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = e;
  }

  std::vector<Entry> entries_;
  Better better_{};
};

}  // namespace ptgsched
