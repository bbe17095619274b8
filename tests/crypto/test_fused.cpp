#include "crypto/fused.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "crypto/block_modes.hpp"
#include "crypto/mac.hpp"
#include "support/mac_reference.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

/// The two-pass reference: the one-shot oracle MAC over prefix | body,
/// then an encryption pass (encrypt()).
struct TwoPass {
  util::Bytes mac;
  util::Bytes ciphertext;
};

TwoPass two_pass(const Des& des, std::uint64_t iv, util::BytesView mac_key,
                 util::BytesView prefix, util::BytesView body,
                 MacAlgorithm alg = MacAlgorithm::kKeyedMd5) {
  return {mac_reference(alg, mac_key, {prefix, body}),
          encrypt(des, CipherMode::kCbc, iv, body)};
}

/// fused_seal_into under a fresh keyed-MD5 context for `mac_key`.
TwoPass fused_seal(const Des& des, std::uint64_t iv, util::BytesView mac_key,
                   util::BytesView prefix, util::BytesView body) {
  const auto ctx = Mac(MacAlgorithm::kKeyedMd5).make_context(mac_key);
  TwoPass out{util::Bytes(ctx.mac_size()), {}};
  fused_seal_into(des, iv, ctx, prefix, body, out.mac.data(),
                  out.ciphertext);
  return out;
}

class FusedSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedSweep, IdenticalToTwoPassPath) {
  const std::size_t size = GetParam();
  util::SplitMix64 rng(size + 1);
  const util::Bytes mac_key = rng.next_bytes(16);
  const util::Bytes prefix = rng.next_bytes(8);
  const util::Bytes body = rng.next_bytes(size);
  const Des des(rng.next_bytes(8));
  const std::uint64_t iv = rng.next_u64();

  const TwoPass ref = two_pass(des, iv, mac_key, prefix, body);
  const TwoPass fused = fused_seal(des, iv, mac_key, prefix, body);
  EXPECT_EQ(fused.mac, ref.mac);
  EXPECT_EQ(fused.ciphertext, ref.ciphertext);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FusedSweep,
                         ::testing::Values(0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u,
                                           64u, 100u, 1024u, 1460u, 8192u));

TEST(Fused, SealMatchesTwoPassAtEveryLength) {
  // The seal hashes the body in 64-byte chunks after the key (or the HMAC
  // inner pad) and the 10-byte header prefix, so the chunks never line up
  // with the hash's blocks: every body length 0..1500 moves the chunk
  // edges, the partial tail and the padding block against both the hash
  // buffer and the cipher chain. Every MAC algorithm takes the same seal,
  // and the open must give back the body and the sender's tag.
  for (const MacAlgorithm alg : kMacAlgorithms) {
    util::SplitMix64 rng(1500);
    const util::Bytes mac_key = rng.next_bytes(16);
    const Des des(rng.next_bytes(8));
    const auto ctx = Mac(alg).make_context(mac_key);
    const std::size_t n = ctx.mac_size();
    util::Bytes ct;
    util::Bytes back;
    for (std::size_t size = 0; size <= 1500; ++size) {
      const util::Bytes prefix = rng.next_bytes(10);
      const util::Bytes body = rng.next_bytes(size);
      const std::uint64_t iv = rng.next_u64();
      std::uint8_t tag[kMaxMacSize];
      fused_seal_into(des, iv, ctx, prefix, body, tag, ct);
      const TwoPass ref = two_pass(des, iv, mac_key, prefix, body, alg);
      ASSERT_EQ(util::Bytes(tag, tag + n), ref.mac)
          << "alg " << static_cast<int>(alg) << " size " << size;
      ASSERT_EQ(ct, ref.ciphertext) << size;
      std::uint8_t rtag[kMaxMacSize];
      ASSERT_TRUE(fused_open_into(des, iv, ctx, prefix, ct, rtag, back));
      ASSERT_EQ(back, body) << size;
      ASSERT_EQ(util::Bytes(rtag, rtag + n), ref.mac) << size;
    }
  }
}

TEST(Fused, DecryptsAndVerifiesLikeNormalOutput) {
  util::SplitMix64 rng(99);
  const util::Bytes mac_key = rng.next_bytes(16);
  const util::Bytes prefix = rng.next_bytes(8);
  const util::Bytes body = util::to_bytes("single data-touching pass");
  const Des des(rng.next_bytes(8));
  const std::uint64_t iv = 0x1122334455667788ull;

  const TwoPass fused = fused_seal(des, iv, mac_key, prefix, body);
  const auto plain = decrypt(des, CipherMode::kCbc, iv, fused.ciphertext);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, body);
  EXPECT_EQ(mac_reference(MacAlgorithm::kKeyedMd5, mac_key, {prefix, *plain}),
            fused.mac);
}

class FusedIntoSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedIntoSweep, SealIntoMatchesOneShot) {
  // The per-flow-context seal must be bit-identical to the one-shot MAC and
  // encrypt() (the context has the key pre-absorbed), with the output
  // buffer arriving dirty from a previous datagram.
  const std::size_t size = GetParam();
  util::SplitMix64 rng(size + 7);
  const util::Bytes mac_key = rng.next_bytes(16);
  const util::Bytes prefix = rng.next_bytes(8);
  const util::Bytes body = rng.next_bytes(size);
  const Des des(rng.next_bytes(8));
  const std::uint64_t iv = rng.next_u64();

  const TwoPass one_shot = two_pass(des, iv, mac_key, prefix, body);

  const Mac mac_alg(MacAlgorithm::kKeyedMd5);
  const auto ctx = mac_alg.make_context(mac_key);
  std::uint8_t tag[16];
  util::Bytes ct(1, 0xEE);  // dirty
  fused_seal_into(des, iv, ctx, prefix, body, tag, ct);
  EXPECT_EQ(util::Bytes(tag, tag + 16), one_shot.mac);
  EXPECT_EQ(ct, one_shot.ciphertext);

  // And open_into inverts it, producing the sender's tag.
  std::uint8_t rtag[16];
  util::Bytes back(1, 0xEE);
  ASSERT_TRUE(fused_open_into(des, iv, ctx, prefix, ct, rtag, back));
  EXPECT_EQ(back, body);
  EXPECT_EQ(util::Bytes(rtag, rtag + 16), one_shot.mac);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FusedIntoSweep,
                         ::testing::Values(0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u,
                                           64u, 100u, 1024u, 1460u, 8192u));

TEST(Fused, OpenIntoRejectsMalformedCiphertext) {
  util::SplitMix64 rng(123);
  const Des des(rng.next_bytes(8));
  const Mac mac_alg(MacAlgorithm::kKeyedMd5);
  const auto ctx = mac_alg.make_context(rng.next_bytes(16));
  std::uint8_t tag[16];
  util::Bytes body;
  // Empty and non-block-multiple inputs are malformed (a sealed body always
  // carries at least the padding block).
  EXPECT_FALSE(fused_open_into(des, 0, ctx, {}, util::Bytes{}, tag, body));
  EXPECT_FALSE(
      fused_open_into(des, 0, ctx, {}, util::Bytes(13, 0xAB), tag, body));
  // Random blocks decrypt to bad PKCS#7 padding with high probability.
  bool any_rejected = false;
  for (int i = 0; i < 8; ++i) {
    if (!fused_open_into(des, rng.next_u64(), ctx, {}, rng.next_bytes(16),
                         tag, body)) {
      any_rejected = true;
    }
  }
  EXPECT_TRUE(any_rejected);
}

TEST(Fused, ContextIsReusableAcrossDatagrams) {
  // One MacContext serves a whole flow: sealing different bodies back to
  // back must give each its independent correct tag (begin() resets state).
  util::SplitMix64 rng(321);
  const util::Bytes mac_key = rng.next_bytes(16);
  const Des des(rng.next_bytes(8));
  const Mac mac_alg(MacAlgorithm::kKeyedMd5);
  const auto ctx = mac_alg.make_context(mac_key);
  util::Bytes ct;
  for (int i = 0; i < 4; ++i) {
    const util::Bytes prefix = rng.next_bytes(8);
    const util::Bytes body = rng.next_bytes(100 + 13 * i);
    const std::uint64_t iv = rng.next_u64();
    std::uint8_t tag[16];
    fused_seal_into(des, iv, ctx, prefix, body, tag, ct);
    const TwoPass expect = two_pass(des, iv, mac_key, prefix, body);
    EXPECT_EQ(util::Bytes(tag, tag + 16), expect.mac) << i;
    EXPECT_EQ(ct, expect.ciphertext) << i;
  }
}

TEST(FusedBatch, SealBatchBitIdenticalToSequentialSealInto) {
  // 100 jobs (several lane chunks plus a residue), mixed keys and sizes:
  // every job's tag and ciphertext must match its own fused_seal_into run.
  util::SplitMix64 rng(777);
  constexpr std::size_t kJobs = 100;
  std::vector<Des> des;
  std::vector<DesBitsliceKeySchedule> sched;
  std::vector<MacContext> macs;
  std::vector<util::Bytes> bodies, prefixes;
  std::vector<std::uint64_t> ivs;
  const Mac mac_alg(MacAlgorithm::kKeyedMd5);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const util::Bytes key = rng.next_bytes(8);
    des.emplace_back(key);
    sched.push_back(DesBitsliceKeySchedule::from_key(key));
    macs.push_back(mac_alg.make_context(rng.next_bytes(16)));
    prefixes.push_back(rng.next_bytes(8));
    bodies.push_back(rng.next_bytes(i * 17 % 300));
    ivs.push_back(rng.next_u64());
  }

  std::vector<util::Bytes> ct(kJobs, util::Bytes(1, 0xEE));  // dirty
  std::vector<std::array<std::uint8_t, 16>> tags(kJobs);
  std::vector<FusedSealJob> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i)
    jobs[i] = FusedSealJob{&des[i],      &sched[i],       ivs[i],
                           &macs[i], prefixes[i],    bodies[i],
                           tags[i].data(), &ct[i]};
  CryptoBatch batch;
  fused_seal_batch(batch, jobs);
  EXPECT_GT(batch.stats().bitsliced_blocks, 0u);

  for (std::size_t i = 0; i < kJobs; ++i) {
    std::uint8_t ref_tag[16];
    util::Bytes ref_ct;
    fused_seal_into(des[i], ivs[i], macs[i], prefixes[i], bodies[i],
                    ref_tag, ref_ct);
    EXPECT_EQ(ct[i], ref_ct) << i;
    EXPECT_EQ(util::Bytes(tags[i].begin(), tags[i].end()),
              util::Bytes(ref_tag, ref_tag + 16))
        << i;
  }
}

TEST(FusedBatch, OpenBatchBitIdenticalToSequentialOpenInto) {
  // Round-trip through the batch open, including malformed jobs salted into
  // the burst: ok flags, recovered bodies and tags must all match the
  // per-datagram fused_open_into verdicts.
  util::SplitMix64 rng(888);
  constexpr std::size_t kJobs = 80;
  std::vector<Des> des;
  std::vector<DesBitsliceKeySchedule> sched;
  std::vector<MacContext> macs;
  std::vector<util::Bytes> cts, prefixes;
  std::vector<std::uint64_t> ivs;
  const Mac mac_alg(MacAlgorithm::kKeyedMd5);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const util::Bytes key = rng.next_bytes(8);
    des.emplace_back(key);
    sched.push_back(DesBitsliceKeySchedule::from_key(key));
    macs.push_back(mac_alg.make_context(rng.next_bytes(16)));
    prefixes.push_back(rng.next_bytes(8));
    ivs.push_back(rng.next_u64());
    if (i % 11 == 3) {
      cts.push_back(rng.next_bytes(13));  // malformed length
    } else if (i % 11 == 7) {
      cts.push_back(rng.next_bytes(16));  // random blocks: padding lottery
    } else {
      std::uint8_t tag[16];
      util::Bytes ct;
      fused_seal_into(des.back(), ivs.back(), macs.back(), prefixes.back(),
                      rng.next_bytes(i * 23 % 400), tag, ct);
      cts.push_back(std::move(ct));
    }
  }

  std::vector<util::Bytes> got_body(kJobs, util::Bytes(1, 0xEE));
  std::vector<std::array<std::uint8_t, 16>> got_tag(kJobs);
  std::vector<FusedOpenJob> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs[i].des = &des[i];
    jobs[i].schedule = &sched[i];
    jobs[i].iv = ivs[i];
    jobs[i].mac = &macs[i];
    jobs[i].mac_prefix = prefixes[i];
    jobs[i].ciphertext = cts[i];
    jobs[i].mac_out = got_tag[i].data();
    jobs[i].body = &got_body[i];
  }
  CryptoBatch batch;
  fused_open_batch(batch, jobs);

  for (std::size_t i = 0; i < kJobs; ++i) {
    std::uint8_t ref_tag[16];
    util::Bytes ref_body;
    const bool ref_ok = fused_open_into(des[i], ivs[i], macs[i],
                                        prefixes[i], cts[i], ref_tag,
                                        ref_body);
    EXPECT_EQ(jobs[i].ok, ref_ok) << i;
    if (!ref_ok) continue;
    EXPECT_EQ(got_body[i], ref_body) << i;
    EXPECT_EQ(util::Bytes(got_tag[i].begin(), got_tag[i].end()),
              util::Bytes(ref_tag, ref_tag + 16))
        << i;
  }
}

TEST(FusedBatch, SmallOpenBatchTakesTheFusedPassPerJob) {
  // A chunk the cost model prices below the wide engine's break-even never
  // touches the batch engine: each job runs the single fused pass, with
  // the same verdicts, bodies and tags, a malformed job included.
  util::SplitMix64 rng(999);
  const Mac mac_alg(MacAlgorithm::kKeyedMd5);
  constexpr std::size_t kJobs = 4;
  std::vector<Des> des;
  std::vector<DesBitsliceKeySchedule> sched;
  std::vector<MacContext> macs;
  std::vector<util::Bytes> cts;
  const util::Bytes prefix = rng.next_bytes(8);
  for (std::size_t i = 0; i < kJobs; ++i) {
    const util::Bytes key = rng.next_bytes(8);
    des.emplace_back(key);
    sched.push_back(DesBitsliceKeySchedule::from_key(key));
    macs.push_back(mac_alg.make_context(rng.next_bytes(16)));
    std::uint8_t tag[16];
    util::Bytes ct;
    fused_seal_into(des[i], i, macs[i], prefix, rng.next_bytes(3 + 5 * i),
                    tag, ct);
    cts.push_back(i == 2 ? rng.next_bytes(13) : std::move(ct));
  }
  std::vector<util::Bytes> bodies(kJobs);
  std::vector<std::array<std::uint8_t, 16>> tags(kJobs);
  std::vector<FusedOpenJob> jobs;
  for (std::size_t i = 0; i < kJobs; ++i)
    jobs.push_back(FusedOpenJob{&des[i], &sched[i], i, &macs[i], prefix,
                                cts[i], tags[i].data(), &bodies[i]});
  CryptoBatch batch;
  fused_open_batch(batch, jobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    std::uint8_t ref_tag[16];
    util::Bytes ref_body;
    const bool ref_ok = fused_open_into(des[i], i, macs[i], prefix, cts[i],
                                        ref_tag, ref_body);
    ASSERT_EQ(jobs[i].ok, ref_ok) << i;
    EXPECT_EQ(ref_ok, i != 2) << i;
    if (!ref_ok) continue;
    EXPECT_EQ(bodies[i], ref_body) << i;
    EXPECT_TRUE(std::equal(ref_tag, ref_tag + 16, tags[i].begin())) << i;
  }
  EXPECT_EQ(batch.stats().passes, 0u);
  EXPECT_EQ(batch.stats().key_loads, 0u);
  EXPECT_EQ(batch.stats().bitsliced_blocks + batch.stats().scalar_blocks, 0u);
}

}  // namespace
}  // namespace fbs::crypto
