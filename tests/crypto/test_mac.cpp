#include "crypto/mac.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "crypto/md5.hpp"
#include "crypto/sha1.hpp"
#include "support/mac_reference.hpp"

namespace fbs::crypto {
namespace {

/// The tag of `alg` under `key` over `chunks`, through a per-flow context.
util::Bytes tag_of(MacAlgorithm alg, util::BytesView key,
                   std::initializer_list<util::BytesView> chunks) {
  const MacContext ctx = Mac(alg).make_context(key);
  util::Bytes tag(ctx.mac_size());
  ctx.compute_into(chunks, tag.data());
  return tag;
}

std::string hmac_md5_hex(const util::Bytes& key, const util::Bytes& msg) {
  return util::to_hex(tag_of(MacAlgorithm::kHmacMd5, key, {msg}));
}

std::string hmac_sha1_hex(const util::Bytes& key, const util::Bytes& msg) {
  return util::to_hex(tag_of(MacAlgorithm::kHmacSha1, key, {msg}));
}

// RFC 2202 test cases for HMAC-MD5.
TEST(HmacMd5, Rfc2202Case1) {
  EXPECT_EQ(hmac_md5_hex(util::Bytes(16, 0x0b), util::to_bytes("Hi There")),
            "9294727a3638bb1c13f48ef8158bfc9d");
}

TEST(HmacMd5, Rfc2202Case2) {
  EXPECT_EQ(hmac_md5_hex(util::to_bytes("Jefe"),
                         util::to_bytes("what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738");
}

TEST(HmacMd5, Rfc2202Case3) {
  EXPECT_EQ(hmac_md5_hex(util::Bytes(16, 0xaa), util::Bytes(50, 0xdd)),
            "56be34521d144c88dbb8c733f0e8b3f6");
}

TEST(HmacMd5, Rfc2202Case4) {
  EXPECT_EQ(hmac_md5_hex(*util::from_hex("0102030405060708090a0b0c0d0e0f101112"
                                         "13141516171819"),
                         util::Bytes(50, 0xcd)),
            "697eaf0aca3a3aea3a75164746ffaa79");
}

TEST(HmacMd5, Rfc2202Case6LongKey) {
  // 80-byte key exercises the hash-the-key path.
  EXPECT_EQ(hmac_md5_hex(util::Bytes(80, 0xaa),
                         util::to_bytes(
                             "Test Using Larger Than Block-Size Key - Hash "
                             "Key First")),
            "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
}

// RFC 2202 test cases for HMAC-SHA1.
TEST(HmacSha1, Rfc2202Case1) {
  EXPECT_EQ(hmac_sha1_hex(util::Bytes(20, 0x0b), util::to_bytes("Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  EXPECT_EQ(hmac_sha1_hex(util::to_bytes("Jefe"),
                          util::to_bytes("what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  EXPECT_EQ(hmac_sha1_hex(util::Bytes(20, 0xaa), util::Bytes(50, 0xdd)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, Rfc2202Case6LongKey) {
  EXPECT_EQ(hmac_sha1_hex(util::Bytes(80, 0xaa),
                          util::to_bytes(
                              "Test Using Larger Than Block-Size Key - Hash "
                              "Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(KeyedPrefixMac, EqualsHashOfKeyThenMessage) {
  // The paper's construction is literally H(K | chunks...).
  const util::Bytes key = util::to_bytes("flowkey");
  const util::Bytes a = util::to_bytes("confounder+ts");
  const util::Bytes b = util::to_bytes("payload");
  util::Bytes concat = key;
  concat.insert(concat.end(), a.begin(), a.end());
  concat.insert(concat.end(), b.begin(), b.end());
  EXPECT_EQ(tag_of(MacAlgorithm::kKeyedMd5, key, {a, b}), md5(concat));
  EXPECT_EQ(tag_of(MacAlgorithm::kKeyedSha1, key, {a, b}), sha1(concat));
}

TEST(KeyedPrefixMac, KeySeparation) {
  const util::Bytes msg = util::to_bytes("same message");
  EXPECT_NE(tag_of(MacAlgorithm::kKeyedMd5, util::to_bytes("key1"), {msg}),
            tag_of(MacAlgorithm::kKeyedMd5, util::to_bytes("key2"), {msg}));
}

TEST(KeyedPrefixMac, MessageSensitivity) {
  const util::Bytes key = util::to_bytes("k");
  EXPECT_NE(tag_of(MacAlgorithm::kKeyedMd5, key, {util::to_bytes("msg-a")}),
            tag_of(MacAlgorithm::kKeyedMd5, key, {util::to_bytes("msg-b")}));
}

TEST(KeyedPrefixMac, ChunkingIsTransparent) {
  const util::Bytes key = util::to_bytes("k");
  const util::Bytes ab = util::to_bytes("ab");
  const util::Bytes a = util::to_bytes("a");
  const util::Bytes b = util::to_bytes("b");
  EXPECT_EQ(tag_of(MacAlgorithm::kKeyedMd5, key, {ab}),
            tag_of(MacAlgorithm::kKeyedMd5, key, {a, b}));
}

TEST(HmacMac, ChunkingIsTransparent) {
  const util::Bytes key = util::to_bytes("k");
  const util::Bytes a = util::to_bytes("hello ");
  const util::Bytes b = util::to_bytes("world");
  const util::Bytes whole = util::to_bytes("hello world");
  EXPECT_EQ(tag_of(MacAlgorithm::kHmacSha1, key, {a, b}),
            tag_of(MacAlgorithm::kHmacSha1, key, {whole}));
}

TEST(Mac, SizesMatchUnderlyingHash) {
  EXPECT_EQ(Mac(MacAlgorithm::kKeyedMd5).mac_size(), 16u);
  EXPECT_EQ(Mac(MacAlgorithm::kKeyedSha1).mac_size(), 20u);
  EXPECT_EQ(Mac(MacAlgorithm::kHmacMd5).mac_size(), 16u);
  EXPECT_EQ(Mac(MacAlgorithm::kHmacSha1).mac_size(), 20u);
  EXPECT_EQ(Mac(MacAlgorithm::kNull).mac_size(), 16u);
  for (const MacAlgorithm alg : kMacAlgorithms) {
    EXPECT_LE(Mac(alg).mac_size(), kMaxMacSize);
    EXPECT_EQ(Mac(alg).make_context(util::to_bytes("k")).mac_size(),
              Mac(alg).mac_size());
  }
  EXPECT_THROW(Mac(static_cast<MacAlgorithm>(9)).make_context({}),
               std::invalid_argument);
}

TEST(MacContext, MatchesOneShotComputeForEveryAlgorithm) {
  // The per-flow contexts (key precomputed once, then one MacRun of
  // update/finish_into per datagram) must agree with the one-shot oracle
  // for every algorithm, key length (short, block-sized, overlong), and
  // chunking, across repeated reuse of one context.
  const util::Bytes keys[] = {
      util::to_bytes("k"), util::Bytes(16, 0x0b), util::Bytes(64, 0x3c),
      util::Bytes(80, 0xaa),  // overlong: exercises hash-the-key
  };
  const util::Bytes a = util::to_bytes("confounder+ts");
  const util::Bytes b = util::to_bytes("payload bytes of a datagram");
  for (const MacAlgorithm alg : kMacAlgorithms) {
    for (const util::Bytes& key : keys) {
      const MacContext ctx = Mac(alg).make_context(key);
      ASSERT_EQ(ctx.mac_size(), mac_size(alg));
      for (int round = 0; round < 3; ++round) {  // context reuse
        MacRun run(ctx);
        run.update(a);
        run.update(b);
        util::Bytes tag(ctx.mac_size());
        run.finish_into(tag.data());
        EXPECT_EQ(tag, mac_reference(alg, key, {a, b}))
            << "alg " << static_cast<int>(alg) << " key len " << key.size()
            << " round " << round;
        util::Bytes one_call(ctx.mac_size());
        ctx.compute_into({a, b}, one_call.data());
        EXPECT_EQ(one_call, tag);
      }
    }
  }
}

TEST(MacContext, AbandonedMessageDoesNotPoisonTheNext) {
  // The receive path bails out mid-datagram on padding failures; a run
  // abandoned mid-message must leave the context untouched for the next.
  const util::Bytes key = util::to_bytes("flow key");
  const MacContext ctx = Mac(MacAlgorithm::kHmacMd5).make_context(key);
  {
    MacRun abandoned(ctx);
    abandoned.update(util::to_bytes("partial garbage never finished"));
  }
  MacRun run(ctx);
  run.update(util::to_bytes("Hi There"));
  util::Bytes tag(ctx.mac_size());
  run.finish_into(tag.data());
  EXPECT_EQ(tag, mac_reference(MacAlgorithm::kHmacMd5, key,
                               {util::to_bytes("Hi There")}));
}

TEST(Mac, HmacDiffersFromKeyedPrefix) {
  const util::Bytes key = util::to_bytes("key");
  const util::Bytes msg = util::to_bytes("msg");
  EXPECT_NE(tag_of(MacAlgorithm::kKeyedMd5, key, {msg}),
            tag_of(MacAlgorithm::kHmacMd5, key, {msg}));
}

}  // namespace
}  // namespace fbs::crypto
