#include "crypto/md5.hpp"

#include <gtest/gtest.h>

#include "support/md5_reference.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

std::string md5_hex(const std::string& s) {
  return util::to_hex(md5(util::to_bytes(s)));
}

// The complete RFC 1321 appendix A.5 test suite.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5_hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5_hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5_hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(md5_hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345"
                    "6789"),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(md5_hex("1234567890123456789012345678901234567890123456789012345678"
                    "9012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, StreamingMatchesOneShot) {
  const util::Bytes data = util::to_bytes(
      "the quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways. 0123456789.");
  for (std::size_t chunk : {1u, 3u, 7u, 63u, 64u, 65u}) {
    Md5 ctx;
    for (std::size_t off = 0; off < data.size(); off += chunk)
      ctx.update(util::BytesView(data).subspan(
          off, std::min(chunk, data.size() - off)));
    EXPECT_EQ(ctx.finish(), md5(data)) << "chunk " << chunk;
  }
}

TEST(Md5, ResetAllowsReuse) {
  Md5 ctx;
  ctx.update(util::to_bytes("first"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(util::to_bytes("abc"));
  EXPECT_EQ(util::to_hex(ctx.finish()), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, CloneCopiesState) {
  Md5 ctx;
  ctx.update(util::to_bytes("ab"));
  auto copy = ctx.clone();
  copy->update(util::to_bytes("c"));
  EXPECT_EQ(util::to_hex(copy->finish()),
            "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, LengthPaddingBoundaries) {
  // 55, 56, 57, 63, 64, 65-byte messages exercise both padding branches.
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const util::Bytes data(n, 'x');
    Md5 ctx;
    ctx.update(data);
    const auto d1 = ctx.finish();
    EXPECT_EQ(d1.size(), 16u);
    EXPECT_EQ(d1, md5(data)) << n;
  }
}

TEST(Md5, DistinctInputsDistinctDigests) {
  EXPECT_NE(md5(util::to_bytes("flow-1")), md5(util::to_bytes("flow-2")));
}

TEST(Md5, InterfaceMetadata) {
  Md5 ctx;
  EXPECT_EQ(ctx.digest_size(), 16u);
  EXPECT_EQ(ctx.block_size(), 64u);
}

TEST(Md5, MatchesLoopFormReferenceAtEveryLength) {
  // The straight-line compression against the loop-form oracle, on random
  // messages of every length 0..300 fed through random update() splits, so
  // every buffer fill level meets every block boundary.
  ASSERT_EQ(util::to_hex(md5_reference(util::to_bytes("abc"))),
            "900150983cd24fb0d6963f7d28e17f72");
  util::SplitMix64 rng(1321);
  for (std::size_t len = 0; len <= 300; ++len) {
    const util::Bytes msg = rng.next_bytes(len);
    Md5 ctx;
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = 1 + rng.next_below(len - off);
      ctx.update(util::BytesView(msg).subspan(off, take));
      off += take;
    }
    EXPECT_EQ(ctx.finish(), md5_reference(msg)) << len;
  }
}

}  // namespace
}  // namespace fbs::crypto
