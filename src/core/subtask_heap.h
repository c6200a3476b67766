// Calendar priority queue for the Pfair ready queue, specializing
// BinaryHeap<SubtaskRef, SubtaskPriority>.
//
// Every Pfair priority rule (PD2, PD, PF, EPDF — flipped-b included)
// orders by pseudo-deadline first and consults tie-breaks only between
// equal deadlines.  A comparison-based heap pays O(log n) data-dependent
// branches per pop for an order the deadline already gives away, and on
// the simulator hot path (M pops + M pushes per quantum) those sifts
// dominated the profile.  This structure indexes ready subtasks by
// deadline instead:
//
//   - a power-of-two ring of buckets, one deadline value per bucket
//     (entries in [base_, base_ + size) cannot alias, and base_ only
//     moves forward, so the invariant is free);
//   - a bitmap of non-empty buckets, scanned in wrapped index order from
//     base_, which is exactly ascending-deadline order — the first
//     non-empty bucket holds every candidate for the ring minimum;
//   - the full comparator breaks ties inside that one bucket (a handful
//     of entries), so pop returns the exact comparator minimum and the
//     pop sequence is bit-identical to any other implementation of the
//     same strict total order;
//   - a small 4-ary side heap (ordered by the same comparator) absorbs
//     entries outside the ring window: deadlines below base_ (late
//     requeued subtasks after the window advanced) or beyond the growth
//     cap.  The global top is the comparator-min of the ring candidate
//     and the side top; a below-base_ side entry wins automatically
//     because a strictly smaller deadline wins under every rule.
//
// Push is O(1) (bucket append + bitmap set), erase is O(1) (swap-pop
// via a handle-indexed location table), pop is O(buckets scanned +
// bucket size) with the scan amortized by the forward march of base_.
// PD2's b-bit fault injection flips the comparator at run time; the
// flip is resolved once per operation and only affects equal-deadline
// selection, which the bucket layout leaves to the comparator anyway.
//
// Included from core/priority.h so every translation unit that can name
// BinaryHeap<SubtaskRef, SubtaskPriority> sees the specialization (no
// ODR split between the primary template and this one).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/priority.h"
#include "util/binary_heap.h"

namespace pfair {

template <>
class BinaryHeap<SubtaskRef, SubtaskPriority> {
 public:
  explicit BinaryHeap(SubtaskPriority less = SubtaskPriority{}) noexcept
      : less_(less),
        packed_alg_(static_cast<std::uint8_t>(less.algorithm())),
        flip_guarded_(less.algorithm() == Algorithm::kPD2) {}

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  void clear() noexcept {
    if (ring_count_ > 0) {
      for (std::vector<Node>& b : buckets_) b.clear();
    }
    std::fill(words_.begin(), words_.end(), std::uint64_t{0});
    ring_count_ = 0;
    side_.clear();
    values_.clear();
    loc_.clear();
    free_slots_.clear();
    count_ = 0;
    base_ = 0;
    hi_ = 0;
    cached_top_ = kInvalidHandle;
    cached_bucket_ = -1;
  }

  /// Inserts `value`; O(1) unless the ring grows (rare, geometric).
  HeapHandle push(SubtaskRef value) {
    HeapHandle h;
    if (!free_slots_.empty()) {
      h = free_slots_.back();
      free_slots_.pop_back();
      values_[h] = value;
    } else {
      h = static_cast<HeapHandle>(values_.size());
      values_.push_back(value);
      loc_.emplace_back();
    }
    insert_node(Node{value.key, h, value.key_alg}, value.deadline);
    ++count_;
    cached_top_ = kInvalidHandle;
    return h;
  }

  /// Highest-priority element; heap must be non-empty.
  [[nodiscard]] const SubtaskRef& top() const noexcept { return values_[find_top()]; }

  /// Handle of the highest-priority element.
  [[nodiscard]] HeapHandle top_handle() const noexcept { return find_top(); }

  /// Removes and returns the highest-priority element.
  SubtaskRef pop() {
    const HeapHandle h = find_top();
    SubtaskRef out = std::move(values_[h]);
    detach(h);
    release_handle(h);
    return out;
  }

  /// Removes the element behind `h`; O(1) for ring entries.
  void erase(HeapHandle h) {
    assert(contains(h));
    detach(h);
    release_handle(h);
  }

  /// Read access to the element behind `h`.
  [[nodiscard]] const SubtaskRef& get(HeapHandle h) const noexcept {
    assert(contains(h));
    return values_[h];
  }

  /// Mutable access; caller must call update(h) if the ordering key changed.
  [[nodiscard]] SubtaskRef& get_mutable(HeapHandle h) noexcept {
    assert(contains(h));
    return values_[h];
  }

  /// Re-files the element behind `h` after its key changed; re-reads the
  /// packed key and deadline from the side table.
  void update(HeapHandle h) {
    assert(contains(h));
    detach(h);
    insert_node(Node{values_[h].key, h, values_[h].key_alg}, values_[h].deadline);
    cached_top_ = kInvalidHandle;
  }

  /// True iff `h` currently refers to a live element.
  [[nodiscard]] bool contains(HeapHandle h) const noexcept {
    return h < loc_.size() && loc_[h].where != kFree;
  }

  /// Verifies every structural invariant; test hook, O(n).
  [[nodiscard]] bool validate() const {
    const bool fl = flip();
    std::size_t ring_seen = 0;
    const std::size_t mask = buckets_.empty() ? 0 : buckets_.size() - 1;
    for (std::size_t idx = 0; idx < buckets_.size(); ++idx) {
      const std::vector<Node>& b = buckets_[idx];
      const bool bit = (words_[idx >> 6] >> (idx & 63)) & 1u;
      if (bit != !b.empty()) return false;
      for (std::size_t k = 0; k < b.size(); ++k) {
        const Node& nd = b[k];
        const Loc& l = loc_[nd.handle];
        if (l.where != static_cast<std::int32_t>(idx) || l.pos != k) return false;
        const Time d = values_[nd.handle].deadline;
        if ((static_cast<std::size_t>(d) & mask) != idx) return false;
        if (d < base_ || d > hi_) return false;
        if (d - base_ >= static_cast<Time>(buckets_.size())) return false;
        if (!(nd.key == values_[nd.handle].key) ||
            nd.key_alg != values_[nd.handle].key_alg) {
          return false;
        }
        ++ring_seen;
      }
    }
    if (ring_seen != ring_count_) return false;
    for (std::size_t i = 0; i < side_.size(); ++i) {
      const Loc& l = loc_[side_[i].handle];
      if (l.where != kSide || l.pos != i) return false;
      if (i > 0 && node_less(side_[i], side_[(i - 1) / kArity], fl)) return false;
      if (!(side_[i].key == values_[side_[i].handle].key) ||
          side_[i].key_alg != values_[side_[i].handle].key_alg) {
        return false;
      }
    }
    if (ring_count_ + side_.size() != count_) return false;
    std::size_t live = 0;
    for (const Loc& l : loc_)
      if (l.where != kFree) ++live;
    return live == count_;
  }

 private:
  struct Node {
    PackedKey key;
    HeapHandle handle;
    std::uint8_t key_alg;
  };

  /// Location of a live element: kSide = side-heap position, kFree =
  /// recycled handle, otherwise the ring bucket index (pos = index
  /// within the bucket or the side heap).
  static constexpr std::int32_t kFree = -1;
  static constexpr std::int32_t kSide = -2;
  struct Loc {
    std::int32_t where = kFree;
    std::uint32_t pos = 0;
  };

  static constexpr std::size_t kInitialBuckets = 256;      // power of two, >= 64
  static constexpr std::size_t kMaxBuckets = 1u << 17;     // beyond: side heap
  static constexpr std::size_t kArity = 4;                 // side-heap fan-out

  /// PD2's test-only b-bit fault injection inverts the comparator at run
  /// time; keys are packed for the unflipped rule, so a PD2 queue loads
  /// the flag once per operation and compares through the legacy chain
  /// while it is set.
  [[nodiscard]] bool flip() const noexcept {
    return flip_guarded_ && pd2_b_bit_flip_for_test();
  }

  [[nodiscard]] bool node_less(const Node& a, const Node& b, bool fl) const noexcept {
    if (a.key_alg == packed_alg_ && b.key_alg == packed_alg_ && !fl) [[likely]] {
      return a.key < b.key;
    }
    return less_.compare_legacy(values_[a.handle], values_[b.handle]);
  }

  void release_handle(HeapHandle h) {
    loc_[h].where = kFree;
    free_slots_.push_back(h);
    --count_;
    cached_top_ = kInvalidHandle;
  }

  void insert_node(Node nd, Time d) {
    cached_bucket_ = -1;
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
      // subtask — the common case right after a pop advanced base_ to
      // the ring minimum).  Rewinding base_ is safe whenever the whole
      // span [d, hi_] still fits the ring: no two live entries can then
      // share a bucket with different deadlines.
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
    loc_[nd.handle] = Loc{static_cast<std::int32_t>(idx),
                          static_cast<std::uint32_t>(b.size())};
    b.push_back(nd);
    ++ring_count_;
  }

  /// Unlinks `h` from the ring or side heap without freeing the handle.
  void detach(HeapHandle h) {
    const Loc l = loc_[h];
    assert(l.where != kFree);
    if (l.where == kSide) {
      side_erase_at(l.pos);
      return;
    }
    std::vector<Node>& b = buckets_[static_cast<std::size_t>(l.where)];
    if (l.pos + 1 != b.size()) {
      b[l.pos] = b.back();
      loc_[b[l.pos].handle].pos = l.pos;
    }
    b.pop_back();
    if (b.empty()) {
      words_[static_cast<std::size_t>(l.where) >> 6] &=
          ~(std::uint64_t{1} << (static_cast<std::size_t>(l.where) & 63));
    }
    --ring_count_;
  }

  /// First non-empty bucket in wrapped index order from base_ — the
  /// lowest live ring deadline.  Advances base_ to it (a pure scan
  /// hint: no live ring entry is below the found minimum).
  [[nodiscard]] std::size_t first_bucket() const {
    assert(ring_count_ > 0);
    const std::size_t mask = buckets_.size() - 1;
    const std::size_t i0 = static_cast<std::size_t>(base_) & mask;
    std::size_t w = i0 >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (i0 & 63));
    const std::size_t nwords = words_.size();
    for (;;) {
      if (word != 0) {
        const std::size_t idx =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        base_ += static_cast<Time>((idx - i0) & mask);
        return idx;
      }
      w = (w + 1 == nwords) ? 0 : w + 1;
      word = words_[w];
    }
  }

  /// Handle of the comparator-minimum element.  Two caches cover the hot
  /// access patterns: cached_top_ survives between top() and the pop that
  /// consumes it, and cached_bucket_ survives a run of consecutive pops
  /// (the scheduler pops M per quantum with no pushes in between), so
  /// only the first pop of a burst pays the bitmap scan.
  [[nodiscard]] HeapHandle find_top() const noexcept {
    assert(count_ > 0);
    if (cached_top_ != kInvalidHandle) return cached_top_;
    const bool fl = flip();
    const Node* best = nullptr;
    if (ring_count_ > 0) {
      if (cached_bucket_ < 0 ||
          buckets_[static_cast<std::size_t>(cached_bucket_)].empty()) {
        cached_bucket_ = static_cast<std::int32_t>(first_bucket());
      }
      const std::vector<Node>& b = buckets_[static_cast<std::size_t>(cached_bucket_)];
      best = &b[0];
      for (std::size_t k = 1; k < b.size(); ++k) {
        if (node_less(b[k], *best, fl)) best = &b[k];
      }
    }
    if (!side_.empty() && (best == nullptr || node_less(side_[0], *best, fl))) {
      best = &side_[0];
    }
    cached_top_ = best->handle;
    return cached_top_;
  }

  /// Grows the ring to cover `delta`; false when capped (side heap takes
  /// the entry).  Re-buckets every ring entry under the new mask.
  bool grow_to(Time delta) {
    std::size_t want = buckets_.size();
    while (static_cast<Time>(want) <= delta) {
      if (want >= kMaxBuckets) return false;
      want <<= 1;
    }
    std::vector<std::vector<Node>> grown(want);
    for (std::vector<Node>& b : buckets_) {
      for (const Node& nd : b) {
        grown[static_cast<std::size_t>(values_[nd.handle].deadline) & (want - 1)]
            .push_back(nd);
      }
    }
    buckets_ = std::move(grown);
    cached_bucket_ = -1;
    words_.assign(want >> 6, 0);
    for (std::size_t idx = 0; idx < buckets_.size(); ++idx) {
      const std::vector<Node>& b = buckets_[idx];
      if (b.empty()) continue;
      words_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      for (std::size_t k = 0; k < b.size(); ++k) {
        loc_[b[k].handle] =
            Loc{static_cast<std::int32_t>(idx), static_cast<std::uint32_t>(k)};
      }
    }
    return true;
  }

  // --- side heap: 4-ary, ordered by the full comparator ------------------

  [[nodiscard]] std::size_t append_side(Node nd) {
    const std::size_t pos = side_.size();
    side_.push_back(nd);
    loc_[nd.handle] = Loc{kSide, static_cast<std::uint32_t>(pos)};
    return pos;
  }

  void place_side(std::size_t pos, Node nd) noexcept {
    loc_[nd.handle] = Loc{kSide, static_cast<std::uint32_t>(pos)};
    side_[pos] = nd;
  }

  bool side_sift_up(std::size_t pos) {
    const bool fl = flip();
    const Node node = side_[pos];
    bool moved = false;
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!node_less(node, side_[parent], fl)) break;
      place_side(pos, side_[parent]);
      pos = parent;
      moved = true;
    }
    place_side(pos, node);
    return moved;
  }

  void side_sift_down(std::size_t pos) {
    const bool fl = flip();
    const Node node = side_[pos];
    const std::size_t n = side_.size();
    for (;;) {
      const std::size_t first = kArity * pos + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (node_less(side_[c], side_[best], fl)) best = c;
      }
      if (!node_less(side_[best], node, fl)) break;
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
  std::size_t count_ = 0;    ///< live elements (ring + side)

  std::vector<std::vector<Node>> buckets_;  ///< ring, size a power of two
  std::vector<std::uint64_t> words_;        ///< bitmap of non-empty buckets
  std::size_t ring_count_ = 0;
  /// Lower bound on every live ring deadline; monotone while the ring is
  /// non-empty, re-anchored freely when it drains.  Mutable: advancing it
  /// during a const scan is a pure hint.
  mutable Time base_ = 0;
  /// Upper bound on every live ring deadline (conservative: not lowered
  /// by erases; reset when the ring drains).  hi_ - base_ < size always.
  Time hi_ = 0;
  mutable HeapHandle cached_top_ = kInvalidHandle;
  /// Ring bucket holding the minimum deadline, or -1; valid while only
  /// erases happen (erases never lower another bucket's deadline).
  mutable std::int32_t cached_bucket_ = -1;

  std::vector<Node> side_;              ///< comparator-ordered out-of-window heap
  std::vector<SubtaskRef> values_;      ///< handle -> element (never moved)
  std::vector<Loc> loc_;                ///< handle -> current location
  std::vector<HeapHandle> free_slots_;  ///< recycled handles
};

}  // namespace pfair
