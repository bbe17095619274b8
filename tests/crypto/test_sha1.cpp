#include "crypto/sha1.hpp"

#include <gtest/gtest.h>

namespace fbs::crypto {
namespace {

std::string sha1_hex(const std::string& s) {
  return util::to_hex(sha1(util::to_bytes(s)));
}

TEST(Sha1, FipsVectors) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs) {
  // FIPS 180 long test: one million repetitions of 'a'.
  Sha1 ctx;
  const util::Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(util::to_hex(ctx.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, StreamingMatchesOneShot) {
  const util::Bytes data = util::to_bytes(
      "security flow labels feed a one-way pseudorandom hash function");
  for (std::size_t chunk : {1u, 5u, 64u, 65u}) {
    Sha1 ctx;
    for (std::size_t off = 0; off < data.size(); off += chunk)
      ctx.update(util::BytesView(data).subspan(
          off, std::min(chunk, data.size() - off)));
    EXPECT_EQ(ctx.finish(), sha1(data)) << "chunk " << chunk;
  }
}

TEST(Sha1, PaddingBoundaries) {
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const util::Bytes data(n, 'y');
    EXPECT_EQ(sha1(data).size(), 20u) << n;
  }
}

TEST(Sha1, ResetAndClone) {
  Sha1 ctx;
  ctx.update(util::to_bytes("junk"));
  ctx.reset();
  ctx.update(util::to_bytes("ab"));
  Sha1 copy = ctx;  // a plain copy carries the running state
  copy.update(util::to_bytes("c"));
  EXPECT_EQ(util::to_hex(copy.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(ctx.finish(), sha1(util::to_bytes("ab")));
}

TEST(Sha1, DigestLongerThanMd5) {
  EXPECT_EQ(Sha1::kDigestSize, 20u);
  EXPECT_EQ(Sha1::kBlockSize, 64u);
  EXPECT_EQ(sha1({}).size(), Sha1::kDigestSize);
}

}  // namespace
}  // namespace fbs::crypto
