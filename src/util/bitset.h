// A 64-bit-word-packed bitset sized at runtime. This is the storage behind
// graph::AliveMask and the Monte-Carlo cable_dead scratch: unlike
// std::vector<bool> it exposes word-wide operations (set_all / reset_all /
// any / count run one instruction per 64 bits) and guarantees that resizing
// an already-warm bitset never reallocates, which is what makes the
// per-trial loops in sim/ and services/ allocation-free in steady state.
//
// Invariant: bits at positions >= size() in the last word are always zero,
// so count()/any()/operator== never need per-bit masking.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace solarnet::util {

class Bitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;
  static constexpr std::size_t npos = ~std::size_t{0};

  Bitset() = default;
  explicit Bitset(std::size_t n, bool value = false) { assign(n, value); }

  // The one conversion to and from std::vector<bool>, for the one-shot
  // APIs that take or return one and forward to a Bitset kernel.
  static Bitset from_bools(const std::vector<bool>& bits) {
    Bitset out(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) out.set(i);
    }
    return out;
  }
  std::vector<bool> to_bools() const {
    std::vector<bool> out(size_);
    for (std::size_t i = 0; i < size_; ++i) out[i] = (*this)[i];
    return out;
  }

  // Resizes to n bits, all set to `value` (like vector::assign). Reuses
  // existing word storage when capacity allows.
  void assign(std::size_t n, bool value) {
    size_ = n;
    words_.assign(word_count(n), value ? ~Word{0} : Word{0});
    if (value) mask_tail();
  }

  // Resizes to n bits; bits below min(old, new) size keep their value, new
  // bits are `value`.
  void resize(std::size_t n, bool value = false) {
    const std::size_t old_size = size_;
    words_.resize(word_count(n), Word{0});
    size_ = n;
    if (value && n > old_size) {
      for (std::size_t i = old_size; i < n; ++i) set(i);
    } else if (n < old_size) {
      mask_tail();
    }
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool operator[](std::size_t i) const noexcept {
    return (words_[i / kWordBits] >> (i % kWordBits)) & Word{1};
  }
  bool test(std::size_t i) const noexcept { return (*this)[i]; }

  void set(std::size_t i) noexcept {
    words_[i / kWordBits] |= Word{1} << (i % kWordBits);
  }
  void reset(std::size_t i) noexcept {
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }
  void set(std::size_t i, bool value) noexcept {
    value ? set(i) : reset(i);
  }

  // Word-wide fills: one store per 64 bits.
  void set_all() noexcept {
    for (Word& w : words_) w = ~Word{0};
    mask_tail();
  }
  void reset_all() noexcept {
    for (Word& w : words_) w = Word{0};
  }

  bool any() const noexcept {
    for (Word w : words_) {
      if (w != 0) return true;
    }
    return false;
  }
  bool none() const noexcept { return !any(); }
  // True when every bit in [0, size()) is set (vacuously true when empty).
  bool all() const noexcept { return count() == size_; }

  std::size_t count() const noexcept {
    std::size_t total = 0;
    for (Word w : words_) total += static_cast<std::size_t>(std::popcount(w));
    return total;
  }

  // Index of the lowest set bit, or npos when none is set.
  std::size_t find_first() const noexcept {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi] != 0) {
        return wi * kWordBits +
               static_cast<std::size_t>(std::countr_zero(words_[wi]));
      }
    }
    return npos;
  }

  std::span<const Word> words() const noexcept { return words_; }

  // Word-level write used by the batch kernels that assemble a per-trial
  // dead set from transposed lane words. The tail invariant is preserved:
  // writing the last word masks the bits beyond size().
  void set_word(std::size_t wi, Word w) noexcept {
    words_[wi] = w;
    if (wi + 1 == words_.size()) mask_tail();
  }

  friend bool operator==(const Bitset& a, const Bitset& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  static std::size_t word_count(std::size_t bits) noexcept {
    return (bits + kWordBits - 1) / kWordBits;
  }
  // Zeroes the bits beyond size() in the last word, restoring the invariant
  // after a whole-word fill or a shrink.
  void mask_tail() noexcept {
    const std::size_t tail = size_ % kWordBits;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (Word{1} << tail) - 1;
    }
  }

  std::vector<Word> words_;
  std::size_t size_ = 0;
};

// In-place transpose of a 64x64 bit matrix stored as 64 row words: after
// the call, bit c of m[r] is the old bit r of m[c]. Recursive block-swap
// (Hacker's Delight 7-3 generalized to 64 bits): 6 rounds of masked
// exchanges, no memory traffic beyond the 512-byte matrix itself. The
// trial-batch kernels use this to turn "one word per cable holding 64
// trials' bits" into "one word per trial holding 64 cables' bits", so
// per-trial counts become popcounts.
inline void transpose_64x64(std::uint64_t m[64]) noexcept {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      // Swap the high-bit block of row k with the low-bit block of row
      // k|j (B/C blocks of [[A,B],[C,D]]) — the LSB-first-index form;
      // shifting the other operand would transpose about the
      // anti-diagonal instead.
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k | j] ^= t;
      m[k] ^= t << j;
    }
  }
}

}  // namespace solarnet::util
