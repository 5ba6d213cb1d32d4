#include "util/bitset.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace solarnet::util {
namespace {

TEST(Bitset, DefaultIsEmpty) {
  Bitset b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_TRUE(b.all());  // vacuously
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitset, ConstructSized) {
  Bitset zeros(70);
  EXPECT_EQ(zeros.size(), 70u);
  EXPECT_TRUE(zeros.none());
  Bitset ones(70, true);
  EXPECT_EQ(ones.count(), 70u);
  EXPECT_TRUE(ones.all());
  EXPECT_TRUE(ones.any());
}

TEST(Bitset, SetResetTest) {
  Bitset b(130);
  b.set(0);
  b.set(64);   // first bit of second word
  b.set(129);  // last bit
  EXPECT_TRUE(b[0]);
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b[129]);
  EXPECT_FALSE(b[1]);
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b[64]);
  EXPECT_EQ(b.count(), 2u);
  b.set(5, true);
  b.set(0, false);
  EXPECT_TRUE(b[5]);
  EXPECT_FALSE(b[0]);
}

// The tail-bits-zero invariant: whole-word operations must never let bits
// beyond size() leak into count/any/equality.
TEST(Bitset, TailBitsStayZeroAfterSetAll) {
  const Bitset b(65, true);  // one full word + one bit, all set
  EXPECT_EQ(b.count(), 65u);
  ASSERT_EQ(b.words().size(), 2u);
  EXPECT_EQ(b.words()[1], std::uint64_t{1});
}

TEST(Bitset, TailBitsStayZeroAfterShrink) {
  Bitset b(128, true);
  b.assign(65, true);  // reuses the warm storage
  EXPECT_EQ(b.size(), 65u);
  EXPECT_EQ(b.count(), 65u);
  b.assign(3, true);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_EQ(b.words()[0], std::uint64_t{0b111});
}

TEST(Bitset, AssignIsVectorAssignSemantics) {
  Bitset b(10, true);
  b.assign(200, false);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_TRUE(b.none());
  b.assign(3, true);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, Equality) {
  Bitset a(70), b(70);
  EXPECT_EQ(a, b);
  a.set(69);
  EXPECT_FALSE(a == b);
  b.set(69);
  EXPECT_EQ(a, b);
  Bitset c(71);
  c.set(69);
  EXPECT_FALSE(a == c);  // same prefix, different size
}

// Randomized cross-check against std::vector<bool>: every mutation and
// query must agree.
TEST(Bitset, MatchesVectorBoolReference) {
  util::Rng rng(1234);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    Bitset b(n);
    std::vector<bool> ref(n, false);
    for (int step = 0; step < 500; ++step) {
      const auto i = static_cast<std::size_t>(rng.uniform_below(n));
      const bool value = rng.bernoulli(0.5);
      b.set(i, value);
      ref[i] = value;
    }
    std::size_t ref_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(b[i], ref[i]) << "n=" << n << " i=" << i;
      if (ref[i]) ++ref_count;
    }
    EXPECT_EQ(b.count(), ref_count);
    EXPECT_EQ(b.any(), ref_count > 0);
    EXPECT_EQ(b.all(), ref_count == n);
    // The std::vector<bool> conversion round-trips both ways.
    EXPECT_EQ(b.to_bools(), ref);
    EXPECT_EQ(Bitset::from_bools(ref), b);
  }
}

TEST(Bitset, SetWordWritesWholeWordsAndMasksTail) {
  Bitset b(70);  // two words, 6 valid bits in the tail word
  b.set_word(0, ~std::uint64_t{0});
  EXPECT_EQ(b.count(), 64u);
  // Writing the last word must preserve the invariant that bits at
  // positions >= size() stay zero, even when the written word has them set.
  b.set_word(1, ~std::uint64_t{0});
  EXPECT_EQ(b.count(), 70u);
  EXPECT_TRUE(b.all());
  b.set_word(0, 0b101);
  EXPECT_TRUE(b[0]);
  EXPECT_FALSE(b[1]);
  EXPECT_TRUE(b[2]);
  EXPECT_EQ(b.count(), 8u);  // 2 in word 0 + 6 tail bits
}

TEST(Bitset, Transpose64x64MatchesNaiveBitIndexing) {
  Rng rng(321);
  std::uint64_t m[64];
  for (auto& w : m) w = rng.next_u64();
  std::uint64_t t[64];
  for (int i = 0; i < 64; ++i) t[i] = m[i];
  transpose_64x64(t);
  for (int r = 0; r < 64; ++r) {
    for (int c = 0; c < 64; ++c) {
      EXPECT_EQ((t[r] >> c) & 1, (m[c] >> r) & 1) << r << "," << c;
    }
  }
  // Involution: transposing twice restores the original matrix.
  transpose_64x64(t);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(t[i], m[i]);
}

}  // namespace
}  // namespace solarnet::util
