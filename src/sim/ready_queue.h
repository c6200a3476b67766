// Task-keyed calendar ready queue for the Pfair slot kernel.
//
// Every Pfair priority rule (PD2, PD, PF, EPDF — flipped b-bit included)
// orders by pseudo-deadline first and consults tie-breaks only between
// equal deadlines, so the queue indexes ready subtasks by deadline
// instead of sifting a heap:
//
//   - a power-of-two ring of buckets, one deadline value per bucket
//     (entries in [base_, base_ + size) cannot alias, and base_ only
//     moves forward while the ring is non-empty, so the invariant is
//     free);
//   - a bitmap of non-empty buckets, scanned in wrapped index order from
//     base_, which is exactly ascending-deadline order;
//   - the full comparator orders entries inside a bucket, so the queue
//     yields the exact comparator order, bit-identical to any other
//     implementation of the same strict total order;
//   - a small 4-ary side heap (ordered by the same comparator) absorbs
//     entries outside the ring window: deadlines below base_ that a
//     rewind cannot cover, or beyond the growth cap.
//
// A task has at most one pending subtask, so entries are keyed by task:
// a node is {packed key, task id}, the location table is indexed by task
// id, and each task's pending SubtaskRef is stored once, in a table the
// simulator writes it into (pending()).  The ref is read only when a
// comparison cannot use the packed keys — a keyless ref is queued, or
// PD2's test-only b-bit flip is on — and when the ring grows and
// re-buckets by deadline.
//
// take_top(M) is one slot's selection: it walks the buckets once from
// base_, orders each bucket it reaches, takes whole buckets and splits
// only the last, and merges the side heap on the way, so its output is
// exactly the first M entries of the comparator order.  Push and erase
// are O(1) for ring entries; the bucket scan is amortized by the
// forward march of base_.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/priority.h"
#include "util/types.h"

namespace pfair {

class ReadyQueue {
 public:
  explicit ReadyQueue(Algorithm alg) noexcept
      : less_(alg),
        packed_alg_(static_cast<std::uint8_t>(alg)),
        flip_guarded_(alg == Algorithm::kPD2) {}

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Task `id`'s pending-ref slot, created on first use.  The caller
  /// writes the ref here while the task is not queued; it must stay
  /// unchanged from push(id) until the task leaves the queue.
  [[nodiscard]] SubtaskRef& pending(TaskId id) {
    if (id >= refs_.size()) {
      refs_.resize(static_cast<std::size_t>(id) + 1);
      loc_.resize(static_cast<std::size_t>(id) + 1);
    }
    assert(!contains(id));
    return refs_[id];
  }

  /// Task `id`'s pending ref (queued or not).
  [[nodiscard]] const SubtaskRef& ref(TaskId id) const noexcept { return refs_[id]; }

  [[nodiscard]] bool contains(TaskId id) const noexcept {
    return id < loc_.size() && loc_[id].where != kFree;
  }

  /// Queues task `id`'s pending ref; O(1) unless the ring grows (rare,
  /// geometric).
  void push(TaskId id) {
    assert(id < refs_.size() && !contains(id) && refs_[id].task == id);
    const SubtaskRef& r = refs_[id];
    if (r.key_alg != packed_alg_) ++keyless_;
    insert_node(Node{r.key, id}, r.deadline);
    ++count_;
  }

  /// Removes task `id`'s entry; O(1) for ring entries.
  void erase(TaskId id) {
    assert(contains(id));
    detach(id);
    release(id);
  }

  /// The comparator-minimum entry; the queue must be non-empty.
  [[nodiscard]] TaskId top() const noexcept {
    assert(count_ > 0);
    const bool fast = fast_compare();
    const Node* best = nullptr;
    if (ring_count_ > 0) {
      const std::vector<Node>& b = buckets_[first_bucket()];
      best = &b[0];
      for (std::size_t k = 1; k < b.size(); ++k) {
        if (node_less(b[k], *best, fast)) best = &b[k];
      }
    }
    if (!side_.empty() && (best == nullptr || node_less(side_[0], *best, fast))) {
      best = &side_[0];
    }
    return best->task;
  }

  /// The lowest queued deadline (the top's); the queue must be non-empty.
  [[nodiscard]] Time min_deadline() const noexcept {
    assert(count_ > 0);
    Time d = std::numeric_limits<Time>::max();
    if (ring_count_ > 0) {
      (void)first_bucket();  // moves base_ onto the lowest ring deadline
      d = base_;
    }
    if (!side_.empty()) d = std::min(d, refs_[side_[0].task].deadline);
    return d;
  }

  /// Removes the first `m` entries of the comparator order (all of them
  /// if fewer are queued) and writes their task ids to `out` in that
  /// order.
  void take_top(std::size_t m, std::vector<TaskId>& out) {
    out.clear();
    const bool fast = fast_compare();
    while (out.size() < m && ring_count_ > 0) {
      const std::size_t idx = first_bucket();
      std::vector<Node>& b = buckets_[idx];
      const std::size_t want = std::min(m - out.size(), b.size());
      order_prefix(b, want, fast);
      std::size_t k = 0;
      while (k < want && out.size() < m) {
        if (!side_.empty() && node_less(side_[0], b[k], fast)) {
          const TaskId id = side_[0].task;
          side_erase_at(0);
          release(id);
          out.push_back(id);
          continue;
        }
        release(b[k].task);
        out.push_back(b[k].task);
        ++k;
      }
      ring_count_ -= k;
      if (k == b.size()) {
        b.clear();
        words_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
      } else {
        b.erase(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(k));
        for (std::size_t j = 0; j < b.size(); ++j) loc_[b[j].task].pos = static_cast<std::uint32_t>(j);
      }
    }
    while (out.size() < m && !side_.empty()) {
      const TaskId id = side_[0].task;
      side_erase_at(0);
      release(id);
      out.push_back(id);
    }
  }

  /// Verifies every structural invariant; test hook, O(n).
  [[nodiscard]] bool validate() const {
    const bool fast = fast_compare();
    std::size_t ring_seen = 0;
    std::size_t keyless = 0;
    const std::size_t mask = buckets_.empty() ? 0 : buckets_.size() - 1;
    const auto node_ok = [&](const Node& nd) {
      const SubtaskRef& r = refs_[nd.task];
      if (r.task != nd.task || !(nd.key == r.key)) return false;
      if (r.key_alg != packed_alg_) ++keyless;
      return true;
    };
    for (std::size_t idx = 0; idx < buckets_.size(); ++idx) {
      const std::vector<Node>& b = buckets_[idx];
      const bool bit = (words_[idx >> 6] >> (idx & 63)) & 1u;
      if (bit != !b.empty()) return false;
      for (std::size_t k = 0; k < b.size(); ++k) {
        const Loc& l = loc_[b[k].task];
        if (l.where != static_cast<std::int32_t>(idx) || l.pos != k) return false;
        const Time d = refs_[b[k].task].deadline;
        if ((static_cast<std::size_t>(d) & mask) != idx) return false;
        if (d < base_ || d > hi_) return false;
        if (d - base_ >= static_cast<Time>(buckets_.size())) return false;
        if (!node_ok(b[k])) return false;
        ++ring_seen;
      }
    }
    if (ring_seen != ring_count_) return false;
    for (std::size_t i = 0; i < side_.size(); ++i) {
      const Loc& l = loc_[side_[i].task];
      if (l.where != kSide || l.pos != i) return false;
      if (i > 0 && node_less(side_[i], side_[(i - 1) / kArity], fast)) return false;
      if (!node_ok(side_[i])) return false;
    }
    if (ring_count_ + side_.size() != count_ || keyless != keyless_) return false;
    std::size_t live = 0;
    for (const Loc& l : loc_)
      if (l.where != kFree) ++live;
    return live == count_;
  }

 private:
  struct Node {
    PackedKey key;
    TaskId task;
  };

  /// Where a task's entry is: kFree = not queued, kSide = side-heap
  /// position, otherwise the ring bucket index (pos = index within the
  /// bucket or the side heap).
  static constexpr std::int32_t kFree = -1;
  static constexpr std::int32_t kSide = -2;
  struct Loc {
    std::int32_t where = kFree;
    std::uint32_t pos = 0;
  };

  static constexpr std::size_t kInitialBuckets = 256;   // power of two, >= 64
  static constexpr std::size_t kMaxBuckets = 1u << 17;  // beyond: side heap
  static constexpr std::size_t kArity = 4;              // side-heap fan-out

  /// True when every comparison may use the node keys: no keyless ref is
  /// queued and PD2's test-only b-bit flip is off (keys are packed for
  /// the unflipped rule).  Resolved once per operation.
  [[nodiscard]] bool fast_compare() const noexcept {
    return keyless_ == 0 && !(flip_guarded_ && pd2_b_bit_flip_for_test());
  }

  [[nodiscard]] bool node_less(const Node& a, const Node& b, bool fast) const noexcept {
    if (fast) [[likely]] return a.key < b.key;
    return less_(refs_[a.task], refs_[b.task]);
  }

  /// Selection-sorts the first `n` positions of bucket `b` into
  /// comparator order (O(n * |b|); buckets hold one deadline's ties).
  void order_prefix(std::vector<Node>& b, std::size_t n, bool fast) const noexcept {
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t best = j;
      for (std::size_t k = j + 1; k < b.size(); ++k) {
        if (node_less(b[k], b[best], fast)) best = k;
      }
      if (best != j) std::swap(b[j], b[best]);
    }
  }

  /// Marks `id` as no longer queued (its node is already unlinked).
  void release(TaskId id) noexcept {
    if (keyless_ != 0 && refs_[id].key_alg != packed_alg_) --keyless_;
    loc_[id].where = kFree;
    --count_;
  }

  void insert_node(Node nd, Time d) {
    if (buckets_.empty()) {
      buckets_.resize(kInitialBuckets);
      words_.assign(kInitialBuckets >> 6, 0);
    }
    if (ring_count_ == 0) {
      // An empty ring has no window to respect: re-anchor it at d.
      base_ = d;
      hi_ = d;
      ring_insert(nd, d);
      return;
    }
    if (d >= base_) {
      const Time delta = d - base_;
      if (delta < static_cast<Time>(buckets_.size()) || grow_to(delta)) {
        if (d > hi_) hi_ = d;
        ring_insert(nd, d);
        return;
      }
    } else {
      // Below the scan cursor (a release more urgent than every queued
      // subtask — the common case right after a selection advanced
      // base_ to the ring minimum).  Rewinding base_ is safe whenever
      // the whole span [d, hi_] still fits the ring: no two live entries
      // can then share a bucket with different deadlines.
      const Time span = hi_ - d;
      if (span < static_cast<Time>(buckets_.size()) || grow_to(span)) {
        base_ = d;
        ring_insert(nd, d);
        return;
      }
    }
    side_sift_up(append_side(nd));
  }

  void ring_insert(Node nd, Time d) {
    const std::size_t idx = static_cast<std::size_t>(d) & (buckets_.size() - 1);
    std::vector<Node>& b = buckets_[idx];
    if (b.empty()) words_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    loc_[nd.task] = Loc{static_cast<std::int32_t>(idx), static_cast<std::uint32_t>(b.size())};
    b.push_back(nd);
    ++ring_count_;
  }

  /// Unlinks `id`'s node from the ring or the side heap.
  void detach(TaskId id) {
    const Loc l = loc_[id];
    if (l.where == kSide) {
      side_erase_at(l.pos);
      return;
    }
    const auto idx = static_cast<std::size_t>(l.where);
    std::vector<Node>& b = buckets_[idx];
    if (l.pos + 1 != b.size()) {
      b[l.pos] = b.back();
      loc_[b[l.pos].task].pos = l.pos;
    }
    b.pop_back();
    if (b.empty()) words_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    --ring_count_;
  }

  /// First non-empty bucket in wrapped index order from base_ — the
  /// lowest live ring deadline.  Advances base_ to it (a pure scan
  /// hint: no live ring entry is below the found minimum).
  [[nodiscard]] std::size_t first_bucket() const noexcept {
    assert(ring_count_ > 0);
    const std::size_t mask = buckets_.size() - 1;
    const std::size_t i0 = static_cast<std::size_t>(base_) & mask;
    std::size_t w = i0 >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (i0 & 63));
    const std::size_t nwords = words_.size();
    for (;;) {
      if (word != 0) {
        const std::size_t idx = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        base_ += static_cast<Time>((idx - i0) & mask);
        return idx;
      }
      w = (w + 1 == nwords) ? 0 : w + 1;
      word = words_[w];
    }
  }

  /// Grows the ring to cover `delta`; false when capped (the side heap
  /// takes the entry).  Re-buckets every ring entry under the new mask.
  bool grow_to(Time delta) {
    std::size_t want = buckets_.size();
    while (static_cast<Time>(want) <= delta) {
      if (want >= kMaxBuckets) return false;
      want <<= 1;
    }
    std::vector<std::vector<Node>> grown(want);
    for (std::vector<Node>& b : buckets_) {
      for (const Node& nd : b) {
        grown[static_cast<std::size_t>(refs_[nd.task].deadline) & (want - 1)].push_back(nd);
      }
    }
    buckets_ = std::move(grown);
    words_.assign(want >> 6, 0);
    for (std::size_t idx = 0; idx < buckets_.size(); ++idx) {
      const std::vector<Node>& b = buckets_[idx];
      if (b.empty()) continue;
      words_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      for (std::size_t k = 0; k < b.size(); ++k) {
        loc_[b[k].task] = Loc{static_cast<std::int32_t>(idx), static_cast<std::uint32_t>(k)};
      }
    }
    return true;
  }

  // --- side heap: 4-ary, ordered by the full comparator ------------------

  [[nodiscard]] std::size_t append_side(Node nd) {
    const std::size_t pos = side_.size();
    side_.push_back(nd);
    loc_[nd.task] = Loc{kSide, static_cast<std::uint32_t>(pos)};
    return pos;
  }

  void place_side(std::size_t pos, Node nd) noexcept {
    loc_[nd.task] = Loc{kSide, static_cast<std::uint32_t>(pos)};
    side_[pos] = nd;
  }

  bool side_sift_up(std::size_t pos) {
    const bool fast = fast_compare();
    const Node node = side_[pos];
    bool moved = false;
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!node_less(node, side_[parent], fast)) break;
      place_side(pos, side_[parent]);
      pos = parent;
      moved = true;
    }
    place_side(pos, node);
    return moved;
  }

  void side_sift_down(std::size_t pos) {
    const bool fast = fast_compare();
    const Node node = side_[pos];
    const std::size_t n = side_.size();
    for (;;) {
      const std::size_t first = kArity * pos + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (node_less(side_[c], side_[best], fast)) best = c;
      }
      if (!node_less(side_[best], node, fast)) break;
      place_side(pos, side_[best]);
      pos = best;
    }
    place_side(pos, node);
  }

  void side_erase_at(std::size_t pos) {
    const Node last = side_.back();
    side_.pop_back();
    if (pos < side_.size()) {
      place_side(pos, last);
      if (!side_sift_up(pos)) side_sift_down(pos);
    }
  }

  SubtaskPriority less_;
  std::uint8_t packed_alg_;  ///< key_alg value the fast path accepts
  bool flip_guarded_;        ///< PD2: consult the fault-injection flag per operation
  std::size_t count_ = 0;    ///< queued entries (ring + side)
  std::size_t keyless_ = 0;  ///< queued refs without a key for this algorithm

  std::vector<std::vector<Node>> buckets_;  ///< ring, size a power of two
  std::vector<std::uint64_t> words_;        ///< bitmap of non-empty buckets
  std::size_t ring_count_ = 0;
  /// Lower bound on every live ring deadline; monotone while the ring is
  /// non-empty, re-anchored freely when it drains.  Mutable: advancing it
  /// during a const scan is a pure hint.
  mutable Time base_ = 0;
  /// Upper bound on every live ring deadline (conservative: not lowered
  /// by removals; reset when the ring drains).  hi_ - base_ < size always.
  Time hi_ = 0;

  std::vector<Node> side_;        ///< comparator-ordered out-of-window heap
  std::vector<SubtaskRef> refs_;  ///< task id -> its pending ref
  std::vector<Loc> loc_;          ///< task id -> where its entry is queued
};

}  // namespace pfair
