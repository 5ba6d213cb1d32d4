#include "graph/union_find.h"

#include <gtest/gtest.h>

namespace solarnet::graph {
namespace {

TEST(UnionFind, StartsAllSingletons) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  EXPECT_EQ(uf.element_count(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(uf.find(i), i);
    EXPECT_EQ(uf.set_size(i), 1u);
  }
}

TEST(UnionFind, UniteMergesSets) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_EQ(uf.set_count(), 3u);
  EXPECT_EQ(uf.set_size(0), 2u);
}

TEST(UnionFind, UniteIsIdempotent) {
  UnionFind uf(3);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_EQ(uf.set_count(), 2u);
}

TEST(UnionFind, TransitiveConnectivity) {
  UnionFind uf(5);
  uf.unite(0, 1);
  uf.unite(1, 2);
  uf.unite(3, 4);
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(2, 3));
  uf.unite(2, 3);
  EXPECT_TRUE(uf.connected(0, 4));
  EXPECT_EQ(uf.set_count(), 1u);
  EXPECT_EQ(uf.set_size(0), 5u);
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(2);
  EXPECT_THROW(uf.find(2), std::out_of_range);
  EXPECT_THROW(uf.unite(0, 5), std::out_of_range);
}

TEST(UnionFind, LargeChainStaysFlat) {
  constexpr std::size_t kN = 100000;
  UnionFind uf(kN);
  for (std::size_t i = 1; i < kN; ++i) uf.unite(i - 1, i);
  EXPECT_EQ(uf.set_count(), 1u);
  EXPECT_TRUE(uf.connected(0, kN - 1));
  EXPECT_EQ(uf.set_size(kN / 2), kN);
}

TEST(UnionFind, GrowAddsMembersToTheWholeSet) {
  UnionFind uf(4);
  EXPECT_EQ(uf.grow(2, 3), 4u);
  EXPECT_EQ(uf.set_count(), 4u);
  EXPECT_EQ(uf.element_count(), 4u);
  // Grown weight follows the set through a merge, from either side.
  EXPECT_EQ(uf.unite_returning_size(0, 2), 5u);
  EXPECT_EQ(uf.grow(0, 0), 5u);
  EXPECT_EQ(uf.grow(2, 2), 7u);
  EXPECT_EQ(uf.set_size(0), 7u);
  EXPECT_EQ(uf.set_size(1), 1u);
  EXPECT_THROW(uf.grow(4, 1), std::out_of_range);
}

TEST(UnionFind, UniteAndGrowReturnsTheSetSizeEvenWhenAlreadyUnited) {
  UnionFind uf(5);
  EXPECT_EQ(uf.unite_and_grow(0, 1, 0), 2u);
  EXPECT_EQ(uf.unite_and_grow(1, 0, 3), 5u);  // already together
  EXPECT_EQ(uf.set_count(), 4u);
  EXPECT_EQ(uf.unite_and_grow(3, 3, 2), 3u);  // a == b only grows
  EXPECT_EQ(uf.unite_and_grow(3, 0, 0), 8u);
  EXPECT_EQ(uf.set_count(), 3u);
  EXPECT_TRUE(uf.connected(1, 3));
  EXPECT_EQ(uf.set_size(4), 1u);
}

TEST(UnionFind, ZeroElements) {
  UnionFind uf(0);
  EXPECT_EQ(uf.set_count(), 0u);
}

}  // namespace
}  // namespace solarnet::graph
