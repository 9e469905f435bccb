// 2-D Morton (Z-order) encoding — the default linearization the paper uses
// to map raster cells into a 1-D key domain (Section 3, "Dimensionality
// Reduction").

#ifndef DBSA_SFC_MORTON_H_
#define DBSA_SFC_MORTON_H_

#include <cstdint>

namespace dbsa::sfc {

/// Spreads the low 32 bits of x so bit i moves to bit 2i.
inline uint64_t SpreadBits(uint32_t x) {
  uint64_t v = x;
  v = (v | (v << 16)) & 0x0000FFFF0000FFFFULL;
  v = (v | (v << 8)) & 0x00FF00FF00FF00FFULL;
  v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  v = (v | (v << 2)) & 0x3333333333333333ULL;
  v = (v | (v << 1)) & 0x5555555555555555ULL;
  return v;
}

/// Inverse of SpreadBits: collects even-position bits.
inline uint32_t CollectBits(uint64_t v) {
  v &= 0x5555555555555555ULL;
  v = (v | (v >> 1)) & 0x3333333333333333ULL;
  v = (v | (v >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  v = (v | (v >> 4)) & 0x00FF00FF00FF00FFULL;
  v = (v | (v >> 8)) & 0x0000FFFF0000FFFFULL;
  v = (v | (v >> 16)) & 0x00000000FFFFFFFFULL;
  return static_cast<uint32_t>(v);
}

/// Interleaves (x, y) into a Morton code; x occupies even bits.
inline uint64_t MortonEncode(uint32_t x, uint32_t y) {
  return SpreadBits(x) | (SpreadBits(y) << 1);
}

/// Inverse of MortonEncode.
inline void MortonDecode(uint64_t code, uint32_t* x, uint32_t* y) {
  *x = CollectBits(code);
  *y = CollectBits(code >> 1);
}

}  // namespace dbsa::sfc

#endif  // DBSA_SFC_MORTON_H_
