// Binary min-heap.
//
// Both schedulers in the paper use binary heaps for their ready queues
// ("We used binary heaps to implement the priority queues of both
// schedulers"); the EDF/RM simulator keeps its ready queue and release
// calendar in this one.  Unlike std::priority_queue, its sift order is
// fixed here, so jobs with equal keys (two jobs of one task under RM
// after a miss) pop in the same order with every standard library.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace pfair {

/// Binary min-heap over values of type T ordered by `Less` (strict weak
/// ordering; `Less(a,b)` true means `a` has higher priority).
template <typename T, typename Less>
class BinaryHeap {
 public:
  explicit BinaryHeap(Less less = Less{}) : less_(std::move(less)) {}

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  void clear() noexcept { heap_.clear(); }

  /// Inserts `value`; O(log n).
  void push(T value) {
    heap_.push_back(std::move(value));
    sift_up(heap_.size() - 1);
  }

  /// Highest-priority element; heap must be non-empty.
  [[nodiscard]] const T& top() const noexcept {
    assert(!heap_.empty());
    return heap_.front();
  }

  /// Removes and returns the highest-priority element; O(log n).
  T pop() {
    assert(!heap_.empty());
    T out = std::move(heap_.front());
    T last = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = std::move(last);
      sift_down(0);
    }
    return out;
  }

  /// Verifies the heap invariant; test hook, O(n).
  [[nodiscard]] bool validate() const {
    for (std::size_t i = 1; i < heap_.size(); ++i)
      if (less_(heap_[i], heap_[(i - 1) / 2])) return false;
    return true;
  }

 private:
  void sift_up(std::size_t pos) {
    T value = std::move(heap_[pos]);
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!less_(value, heap_[parent])) break;
      heap_[pos] = std::move(heap_[parent]);
      pos = parent;
    }
    heap_[pos] = std::move(value);
  }

  void sift_down(std::size_t pos) {
    T value = std::move(heap_[pos]);
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && less_(heap_[child + 1], heap_[child])) ++child;
      if (!less_(heap_[child], value)) break;
      heap_[pos] = std::move(heap_[child]);
      pos = child;
    }
    heap_[pos] = std::move(value);
  }

  Less less_;
  std::vector<T> heap_;
};

}  // namespace pfair
