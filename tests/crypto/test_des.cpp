#include "crypto/des.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

Des des_from_hex(const char* key_hex) {
  return Des(*util::from_hex(key_hex));
}

TEST(Des, ClassicWorkedExample) {
  // The widely published FIPS worked example.
  const Des des = des_from_hex("133457799BBCDFF1");
  EXPECT_EQ(des.encrypt_block(0x0123456789ABCDEFull), 0x85E813540F0AB405ull);
  EXPECT_EQ(des.decrypt_block(0x85E813540F0AB405ull), 0x0123456789ABCDEFull);
}

TEST(Des, KnownZeroCiphertext) {
  const Des des = des_from_hex("0E329232EA6D0D73");
  EXPECT_EQ(des.encrypt_block(0x8787878787878787ull), 0ull);
}

TEST(Des, AllZeroKeyVector) {
  // DES(k=00..00, pt=00..00) = 8CA64DE9C1B123A7 (standard test vector).
  const Des des = des_from_hex("0000000000000000");
  EXPECT_EQ(des.encrypt_block(0), 0x8CA64DE9C1B123A7ull);
}

TEST(Des, AllOnesKeyVector) {
  // DES(k=FF..FF, pt=FF..FF) = 7359B2163E4EDC58.
  const Des des = des_from_hex("FFFFFFFFFFFFFFFF");
  EXPECT_EQ(des.encrypt_block(0xFFFFFFFFFFFFFFFFull), 0x7359B2163E4EDC58ull);
}

TEST(Des, ParityBitsIgnored) {
  // Keys differing only in parity bits (bit 8 of each byte) are equivalent.
  const Des a = des_from_hex("133457799BBCDFF1");
  const Des b = des_from_hex("123456789ABCDEF0");
  EXPECT_EQ(a.encrypt_block(0x1122334455667788ull),
            b.encrypt_block(0x1122334455667788ull));
}

TEST(Des, EncryptDecryptRoundTripRandom) {
  util::SplitMix64 rng(17);
  for (int i = 0; i < 100; ++i) {
    const Des des(rng.next_bytes(8));
    const std::uint64_t pt = rng.next_u64();
    EXPECT_EQ(des.decrypt_block(des.encrypt_block(pt)), pt);
  }
}

TEST(Des, ComplementationProperty) {
  // DES(~k, ~p) == ~DES(k, p) -- a structural identity of the cipher that
  // catches subtle table errors.
  util::SplitMix64 rng(23);
  for (int i = 0; i < 20; ++i) {
    const util::Bytes key = rng.next_bytes(8);
    util::Bytes nkey(8);
    for (int j = 0; j < 8; ++j) nkey[j] = static_cast<std::uint8_t>(~key[j]);
    const std::uint64_t pt = rng.next_u64();
    const Des des(key), ndes(nkey);
    EXPECT_EQ(ndes.encrypt_block(~pt), ~des.encrypt_block(pt));
  }
}

TEST(Des, ByteInterfaceMatchesWordInterface) {
  const Des des = des_from_hex("133457799BBCDFF1");
  std::uint8_t in[8] = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
  std::uint8_t out[8];
  des.encrypt_block(in, out);
  EXPECT_EQ(Des::load_be64(out), 0x85E813540F0AB405ull);
  std::uint8_t back[8];
  des.decrypt_block(out, back);
  EXPECT_EQ(Des::load_be64(back), 0x0123456789ABCDEFull);
}

TEST(Des, AvalancheSingleBitFlip) {
  const Des des = des_from_hex("0123456789ABCDEF");
  const std::uint64_t base = des.encrypt_block(0);
  const std::uint64_t flipped = des.encrypt_block(1);
  const int diff = __builtin_popcountll(base ^ flipped);
  EXPECT_GE(diff, 16);  // avalanche: ~half the bits should change
}

TEST(Des, LoadStoreBe64RoundTrip) {
  std::uint8_t buf[8];
  Des::store_be64(0x0102030405060708ull, buf);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[7], 0x08);
  EXPECT_EQ(Des::load_be64(buf), 0x0102030405060708ull);
}

TEST(Des, EncryptCbcMatchesPerBlockChain) {
  // The hoisted-IP/FP chain must be bit-identical to chaining
  // encrypt_block, for every block count 0..200, into a separate buffer and
  // in place, and must hand back the last ciphertext block as the chain.
  util::SplitMix64 rng(4096);
  for (std::size_t n = 0; n <= 200; ++n) {
    const Des des(rng.next_bytes(8));
    const std::uint64_t iv = rng.next_u64();
    const util::Bytes plain = rng.next_bytes(8 * n);

    util::Bytes expect(plain.size());
    std::uint64_t ref_chain = iv;
    for (std::size_t off = 0; off < plain.size(); off += 8) {
      ref_chain = des.encrypt_block(Des::load_be64(&plain[off]) ^ ref_chain);
      Des::store_be64(ref_chain, &expect[off]);
    }

    util::Bytes got(plain.size());
    std::uint64_t chain = iv;
    des.encrypt_cbc(chain, plain.data(), got.data(), n);
    EXPECT_EQ(got, expect) << n;
    EXPECT_EQ(chain, ref_chain) << n;

    util::Bytes in_place = plain;
    chain = iv;
    des.encrypt_cbc(chain, in_place.data(), in_place.data(), n);
    EXPECT_EQ(in_place, expect) << n;

    // Split into two calls at a random point: the chain carries across.
    const std::size_t k = n == 0 ? 0 : rng.next_below(n + 1);
    util::Bytes split(plain.size());
    chain = iv;
    des.encrypt_cbc(chain, plain.data(), split.data(), k);
    des.encrypt_cbc(chain, plain.data() + 8 * k, split.data() + 8 * k, n - k);
    EXPECT_EQ(split, expect) << n << " split at " << k;
  }
}

}  // namespace
}  // namespace fbs::crypto
