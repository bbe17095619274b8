#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <array>

#include "util/rng.hpp"

namespace fbs::util {
namespace {

/// The byte-at-a-time reflected CRC-32 (polynomial 0xEDB88320), bit by
/// bit: the oracle the table-driven update must reproduce exactly.
std::uint32_t crc32_bitwise(std::uint32_t state, BytesView data) {
  for (std::uint8_t b : data) {
    state ^= b;
    for (int k = 0; k < 8; ++k)
      state = (state & 1) ? 0xEDB88320u ^ (state >> 1) : state >> 1;
  }
  return state;
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(crc32(to_bytes("")), 0x00000000u);
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(to_bytes("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("flow-based datagram security");
  std::uint32_t st = crc32_init();
  st = crc32_update(st, BytesView(data).subspan(0, 10));
  st = crc32_update(st, BytesView(data).subspan(10));
  EXPECT_EQ(crc32_final(st), crc32(data));
}

TEST(Crc32, SlicedUpdateMatchesBytewiseAtEveryLength) {
  // Lengths 0..300 cover every tail length after the 8-byte strides; each
  // is checked from a fresh state, from a mid-stream state, and at every
  // alignment of the input pointer.
  SplitMix64 rng(32);
  const Bytes data = rng.next_bytes(308);
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t align = 0; align < 8; ++align) {
      const BytesView view = BytesView(data).subspan(align, len);
      ASSERT_EQ(crc32_update(crc32_init(), view),
                crc32_bitwise(crc32_init(), view))
          << "len " << len << " align " << align;
      ASSERT_EQ(crc32_update(0x12345678u, view),
                crc32_bitwise(0x12345678u, view))
          << "len " << len << " align " << align;
    }
  }
}

TEST(Crc32, SingleBitChangesDigest) {
  Bytes data = to_bytes("aaaaaaaaaaaaaaaa");
  const std::uint32_t base = crc32(data);
  data[7] ^= 0x01;
  EXPECT_NE(crc32(data), base);
}

TEST(Crc32, SequentialInputsSpreadWell) {
  // The paper's reason to use CRC-32: sequential inputs (sfl values) should
  // spread across cache sets, unlike raw modulo.
  constexpr std::size_t kSets = 64;
  std::vector<int> counts(kSets, 0);
  for (std::uint64_t sfl = 1000; sfl < 1000 + 4 * kSets; ++sfl) {
    Bytes key(8);
    for (int i = 0; i < 8; ++i)
      key[i] = static_cast<std::uint8_t>(sfl >> (56 - 8 * i));
    ++counts[crc32(key) % kSets];
  }
  // With 4x oversubscription, no set should be grossly overloaded.
  for (int c : counts) EXPECT_LE(c, 12);
}

}  // namespace
}  // namespace fbs::util
