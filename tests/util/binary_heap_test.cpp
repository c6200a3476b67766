#include "util/binary_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "util/rng.h"

namespace pfair {
namespace {

using IntHeap = BinaryHeap<int, std::less<int>>;

TEST(BinaryHeap, PopsInSortedOrder) {
  IntHeap h;
  for (const int x : {5, 3, 8, 1, 9, 2, 7}) h.push(x);
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(out.size(), 7u);
}

TEST(BinaryHeap, EqualKeysPopInAFixedOrder) {
  // Two jobs of one task under RM after a miss compare equal; their pop
  // order follows from the sift code alone.  Pin it.
  struct Tagged {
    int key;
    int tag;
  };
  struct KeyLess {
    bool operator()(const Tagged& a, const Tagged& b) const noexcept { return a.key < b.key; }
  };
  BinaryHeap<Tagged, KeyLess> h;
  std::vector<int> tags;
  for (int i = 0; i < 24; ++i) {
    h.push(Tagged{i % 3 == 2 ? 1 : 0, i});
    if (i % 4 == 3) tags.push_back(h.pop().tag);
  }
  while (!h.empty()) tags.push_back(h.pop().tag);
  EXPECT_EQ(tags, (std::vector<int>{0, 3, 7, 1, 4, 9, 10, 19, 21, 22, 12, 13, 16, 6, 15, 18,
                                    2, 23, 20, 14, 8, 11, 5, 17}));
}

TEST(BinaryHeap, RandomisedAgainstMultiset) {
  Rng rng(71);
  IntHeap h;
  std::multiset<int> live;
  std::size_t pops = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.uniform_int(0, 99) < 60 || live.empty()) {
      const int v = static_cast<int>(rng.uniform_int(0, 1000));
      h.push(v);
      live.insert(v);
    } else {
      // pop: must return the minimum of the live multiset
      EXPECT_EQ(h.pop(), *live.begin());
      live.erase(live.begin());
      ++pops;
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(h.validate());
    }
  }
  EXPECT_EQ(h.size(), live.size());
  EXPECT_GT(pops, 100u);
}

TEST(BinaryHeap, ClearEmptiesEverything) {
  IntHeap h;
  for (int i = 0; i < 10; ++i) h.push(i);
  h.clear();
  EXPECT_TRUE(h.empty());
  h.push(42);
  EXPECT_EQ(h.top(), 42);
}

}  // namespace
}  // namespace pfair
