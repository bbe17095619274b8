// The FIPS PUB 46 constant tables, shared by the table-driven Des fast path
// (which derives its fused SP and key-schedule tables from them at compile
// time) and the bit-at-a-time DesReference test oracle (which walks them
// directly). All tables use the standard's 1-based, MSB-first bit numbering.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace fbs::crypto::des_tables {

inline constexpr std::uint8_t kIp[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

inline constexpr std::uint8_t kFp[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

inline constexpr std::uint8_t kExpansion[48] = {
    32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,  8,  9,  10, 11,
    12, 13, 12, 13, 14, 15, 16, 17, 16, 17, 18, 19, 20, 21, 20, 21,
    22, 23, 24, 25, 24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

inline constexpr std::uint8_t kPbox[32] = {16, 7,  20, 21, 29, 12, 28, 17,
                                           1,  15, 23, 26, 5,  18, 31, 10,
                                           2,  8,  24, 14, 32, 27, 3,  9,
                                           19, 13, 30, 6,  22, 11, 4,  25};

inline constexpr std::uint8_t kPc1[56] = {
    57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
    10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
    14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

inline constexpr std::uint8_t kPc2[48] = {
    14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10, 23, 19, 12, 4,
    26, 8,  16, 7,  27, 20, 13, 2,  41, 52, 31, 37, 47, 55, 30, 40,
    51, 45, 33, 48, 44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

inline constexpr std::uint8_t kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2,
                                             1, 2, 2, 2, 2, 2, 2, 1};

inline constexpr std::uint8_t kSbox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

/// Apply a FIPS permutation table: `in_width` is the bit width of `value`,
/// the output has N bits, bit 1 = MSB.
template <std::size_t N>
constexpr std::uint64_t permute(std::uint64_t value,
                                const std::uint8_t (&table)[N],
                                unsigned in_width) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < N; ++i) {
    out <<= 1;
    out |= (value >> (in_width - table[i])) & 1;
  }
  return out;
}

/// The 16 48-bit round keys K1..K16 of one DES key (bit 47 = the
/// standard's round-key bit 1), plus the PC1 output they were rotated out
/// of: C0 in bits 55..28 and D0 in bits 27..0, MSB first. Computed once per
/// key; the scalar Des core takes the round keys, the bitsliced engine's
/// per-flow schedule takes C0|D0.
struct KeySchedule {
  std::uint64_t subkeys[16];
  std::uint64_t cd0;
};

namespace detail {

/// Byte-sliced PC1: kPc1Bytes[i][v] is PC1 of a key whose byte i (MSB
/// first) has its top seven bits equal to v and every other bit clear. The
/// eighth bit of each byte is parity, which PC1 drops. PC1 is linear over
/// XOR, so the 56-bit C|D of a whole key is the OR of eight lookups.
constexpr auto build_pc1_bytes() {
  std::array<std::array<std::uint64_t, 128>, 8> t{};
  for (unsigned i = 0; i < 8; ++i)
    for (unsigned v = 0; v < 128; ++v)
      t[i][v] = permute(static_cast<std::uint64_t>(v) << (57 - 8 * i), kPc1,
                        64);
  return t;
}

/// Seven-bit-sliced PC2 per half: kPc2C[j][v] is PC2 of a C register whose
/// j-th seven-bit chunk (MSB first) is v, D clear -- it lands in round-key
/// bits 1-24 only; kPc2D likewise for D and bits 25-48.
constexpr auto build_pc2_chunks(bool d_half) {
  std::array<std::array<std::uint64_t, 128>, 4> t{};
  for (unsigned j = 0; j < 4; ++j)
    for (unsigned v = 0; v < 128; ++v)
      t[j][v] = permute(static_cast<std::uint64_t>(v)
                            << (21 - 7 * j + (d_half ? 0 : 28)),
                        kPc2, 56);
  return t;
}

inline constexpr auto kPc1Bytes = build_pc1_bytes();
inline constexpr auto kPc2C = build_pc2_chunks(false);
inline constexpr auto kPc2D = build_pc2_chunks(true);

constexpr std::uint32_t rotl28(std::uint32_t v, unsigned n) {
  return ((v << n) | (v >> (28 - n))) & 0x0FFFFFFFu;
}

constexpr std::uint64_t pc2_half(
    const std::array<std::array<std::uint64_t, 128>, 4>& t, std::uint32_t h) {
  return t[0][h >> 21] | t[1][(h >> 14) & 0x7F] | t[2][(h >> 7) & 0x7F] |
         t[3][h & 0x7F];
}

}  // namespace detail

/// PC1/PC2 key schedule for an 8-byte key loaded big-endian: eight PC1
/// lookups, then per round two 28-bit rotations and eight PC2 lookups --
/// instead of 56 + 16 x 48 single-bit table walks. Differentially tested
/// against DesReference's bit-at-a-time schedule.
constexpr KeySchedule key_schedule(std::uint64_t k64) {
  std::uint64_t pc1 = 0;
  for (unsigned i = 0; i < 8; ++i)
    pc1 |= detail::kPc1Bytes[i][(k64 >> (57 - 8 * i)) & 0x7F];
  std::uint32_t c = static_cast<std::uint32_t>(pc1 >> 28);
  std::uint32_t d = static_cast<std::uint32_t>(pc1 & 0x0FFFFFFFull);
  KeySchedule ks{};
  ks.cd0 = pc1;
  for (int round = 0; round < 16; ++round) {
    c = detail::rotl28(c, kShifts[round]);
    d = detail::rotl28(d, kShifts[round]);
    ks.subkeys[round] =
        detail::pc2_half(detail::kPc2C, c) | detail::pc2_half(detail::kPc2D, d);
  }
  return ks;
}

}  // namespace fbs::crypto::des_tables
