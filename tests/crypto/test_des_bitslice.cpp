#include "crypto/des_bitslice.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "crypto/des.hpp"
#include "support/des_reference.hpp"
#include "util/rng.hpp"

namespace fbs::crypto {
namespace {

constexpr std::size_t kLanes = DesBitslice::kLanes;
constexpr std::size_t kGroup = DesBitslice::kGroupLanes;

TEST(DesBitslice, Transpose64IsInvolutionAndMovesBits) {
  util::SplitMix64 rng(101);
  std::uint64_t m[kGroup];
  std::uint64_t orig[kGroup];
  for (std::size_t i = 0; i < kGroup; ++i) m[i] = orig[i] = rng.next_u64();
  DesBitslice::transpose64(m);
  // M'(r, c) == M(c, r) under MSB-first column numbering.
  for (std::size_t r = 0; r < kGroup; ++r) {
    for (std::size_t c = 0; c < kGroup; ++c) {
      EXPECT_EQ((m[r] >> (63 - c)) & 1, (orig[c] >> (63 - r)) & 1)
          << "r=" << r << " c=" << c;
    }
  }
  DesBitslice::transpose64(m);
  for (std::size_t i = 0; i < kGroup; ++i) EXPECT_EQ(m[i], orig[i]);
}

TEST(DesBitslice, KeyScheduleMatchesReference) {
  util::SplitMix64 rng(102);
  for (int iter = 0; iter < 20; ++iter) {
    const util::Bytes key = rng.next_bytes(8);
    const DesReference ref(key);
    const auto ks = DesBitsliceKeySchedule::from_key(key);
    for (int round = 0; round < 16; ++round) {
      EXPECT_EQ(ks.round_key(round),
                ref.subkeys()[static_cast<std::size_t>(round)]);
    }
  }
}

TEST(DesBitslice, BroadcastKeyMatchesReferenceBothDirections) {
  util::SplitMix64 rng(103);
  for (int iter = 0; iter < 8; ++iter) {
    const util::Bytes key = rng.next_bytes(8);
    const DesReference ref(key);
    DesBitslice bs;
    bs.set_all_lanes(DesBitsliceKeySchedule::from_key(key));

    std::uint64_t blocks[kLanes];
    std::uint64_t pt[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = pt[i] = rng.next_u64();

    bs.encrypt(blocks);
    for (std::size_t i = 0; i < kLanes; ++i) {
      ASSERT_EQ(blocks[i], ref.encrypt_block(pt[i])) << "lane " << i;
    }
    bs.decrypt(blocks);
    for (std::size_t i = 0; i < kLanes; ++i) {
      ASSERT_EQ(blocks[i], pt[i]) << "lane " << i;
    }
  }
}

TEST(DesBitslice, AllLanesDistinctKeysBulkLoad) {
  util::SplitMix64 rng(104);
  std::array<DesBitsliceKeySchedule, kLanes> schedules;
  std::array<const DesBitsliceKeySchedule*, kLanes> ptrs;
  std::array<util::Bytes, kLanes> keys;
  for (std::size_t i = 0; i < kLanes; ++i) {
    keys[i] = rng.next_bytes(8);
    schedules[i] = DesBitsliceKeySchedule::from_key(keys[i]);
    ptrs[i] = &schedules[i];
  }
  DesBitslice bs;
  bs.set_lanes(ptrs);

  std::uint64_t blocks[kLanes];
  std::uint64_t pt[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = pt[i] = rng.next_u64();
  bs.encrypt(blocks);
  for (std::size_t i = 0; i < kLanes; ++i) {
    const DesReference ref(keys[i]);
    ASSERT_EQ(blocks[i], ref.encrypt_block(pt[i])) << "lane " << i;
  }
  bs.decrypt(blocks);
  for (std::size_t i = 0; i < kLanes; ++i) {
    ASSERT_EQ(blocks[i], pt[i]) << "lane " << i;
  }
}

TEST(DesBitslice, SetLaneRekeysOneLaneOnly) {
  util::SplitMix64 rng(105);
  const util::Bytes base_key = rng.next_bytes(8);
  const util::Bytes other_key = rng.next_bytes(8);
  DesBitslice bs;
  bs.set_all_lanes(DesBitsliceKeySchedule::from_key(base_key));
  const auto other = DesBitsliceKeySchedule::from_key(other_key);
  bs.set_lane(7, other);
  bs.set_lane(63, other);

  std::uint64_t blocks[kLanes];
  std::uint64_t pt[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = pt[i] = rng.next_u64();
  bs.encrypt(blocks);
  const DesReference base_ref(base_key);
  const DesReference other_ref(other_key);
  for (std::size_t i = 0; i < kLanes; ++i) {
    const DesReference& ref = (i == 7 || i == 63) ? other_ref : base_ref;
    ASSERT_EQ(blocks[i], ref.encrypt_block(pt[i])) << "lane " << i;
  }
}

/// All key planes of `bs`, plane-major then group.
std::vector<std::uint64_t> planes_of(const DesBitslice& bs) {
  std::vector<std::uint64_t> out;
  for (std::size_t p = 0; p < DesBitslice::kKeyPlanes; ++p)
    for (std::size_t w = 0; w < DesBitslice::kWords; ++w)
      out.push_back(bs.key_plane(p, w));
  return out;
}

TEST(DesBitslice, SetLaneLeavesOtherLanesUntouched) {
  // Start from 256 distinct keys, rekey one lane at a time: every plane bit
  // of the other 255 lanes must keep its value, and the rekeyed lane must
  // read back its new C0|D0.
  util::SplitMix64 rng(108);
  std::array<DesBitsliceKeySchedule, kLanes> schedules;
  std::array<const DesBitsliceKeySchedule*, kLanes> ptrs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    schedules[i] = DesBitsliceKeySchedule::from_key(rng.next_bytes(8));
    ptrs[i] = &schedules[i];
  }
  DesBitslice bs;
  bs.set_lanes(ptrs);
  for (const std::size_t lane : {0u, 1u, 63u, 64u, 130u, 255u}) {
    const std::vector<std::uint64_t> before = planes_of(bs);
    const auto other = DesBitsliceKeySchedule::from_key(rng.next_bytes(8));
    bs.set_lane(lane, other);
    const std::vector<std::uint64_t> after = planes_of(bs);
    const std::size_t w = lane / kGroup;
    const std::uint64_t bit = 1ull << (63 - lane % kGroup);
    for (std::size_t p = 0; p < DesBitslice::kKeyPlanes; ++p) {
      for (std::size_t g = 0; g < DesBitslice::kWords; ++g) {
        const std::size_t i = p * DesBitslice::kWords + g;
        const std::uint64_t others = g == w ? ~bit : ~0ull;
        ASSERT_EQ(after[i] & others, before[i] & others)
            << "lane " << lane << " plane " << p << " group " << g;
      }
      ASSERT_EQ((bs.key_plane(p, w) & bit) != 0,
                ((other.cd0 >> (55 - p)) & 1) != 0)
          << "lane " << lane << " plane " << p;
    }
  }
}

TEST(DesBitslice, SetLanesMatchesPerLaneSetLane) {
  // The bulk transpose load and 256 single-lane updates produce identical
  // planes; a group whose lanes are all null keeps its previous planes.
  util::SplitMix64 rng(109);
  std::array<DesBitsliceKeySchedule, kLanes> schedules;
  std::array<const DesBitsliceKeySchedule*, kLanes> ptrs;
  for (std::size_t i = 0; i < kLanes; ++i) {
    schedules[i] = DesBitsliceKeySchedule::from_key(rng.next_bytes(8));
    ptrs[i] = &schedules[i];
  }
  DesBitslice bulk;
  DesBitslice one_by_one;
  bulk.set_lanes(ptrs);
  for (std::size_t i = 0; i < kLanes; ++i) one_by_one.set_lane(i, schedules[i]);
  EXPECT_EQ(planes_of(bulk), planes_of(one_by_one));

  // Null out group 2: its planes stay, the other groups reload.
  const std::vector<std::uint64_t> before = planes_of(bulk);
  for (std::size_t i = 0; i < kLanes; ++i) {
    schedules[i] = DesBitsliceKeySchedule::from_key(rng.next_bytes(8));
    if (i / kGroup == 2) ptrs[i] = nullptr;
  }
  bulk.set_lanes(ptrs);
  for (std::size_t i = 0; i < kLanes; ++i)
    if (i / kGroup != 2) one_by_one.set_lane(i, schedules[i]);
  EXPECT_EQ(planes_of(bulk), planes_of(one_by_one));
  for (std::size_t p = 0; p < DesBitslice::kKeyPlanes; ++p)
    EXPECT_EQ(bulk.key_plane(p, 2), before[p * DesBitslice::kWords + 2]);
}

TEST(DesBitslice, PartialGroupPassMatchesFullPass) {
  // A pass told that only its first g groups carry work computes those
  // lanes exactly as a full pass does.
  util::SplitMix64 rng(110);
  const util::Bytes key = rng.next_bytes(8);
  const DesReference ref(key);
  DesBitslice bs;
  bs.set_all_lanes(DesBitsliceKeySchedule::from_key(key));
  for (std::size_t g = 1; g <= DesBitslice::kWords; ++g) {
    std::uint64_t blocks[kLanes] = {};
    std::uint64_t pt[kLanes] = {};
    for (std::size_t i = 0; i < g * kGroup; ++i) blocks[i] = pt[i] = rng.next_u64();
    bs.encrypt(blocks, g);
    for (std::size_t i = 0; i < g * kGroup; ++i)
      ASSERT_EQ(blocks[i], ref.encrypt_block(pt[i])) << "g " << g << " lane " << i;
    bs.decrypt(blocks, g);
    for (std::size_t i = 0; i < g * kGroup; ++i)
      ASSERT_EQ(blocks[i], pt[i]) << "g " << g << " lane " << i;
  }
}

TEST(DesBitslice, MonteCarloChainPerLane) {
  // NIST MCT shape: iterate the cipher on its own output 1000 times per
  // lane, distinct keys, compare the final value lane by lane. Any
  // cross-lane leak or wiring error diverges within a few iterations.
  util::SplitMix64 rng(106);
  std::array<DesBitsliceKeySchedule, kLanes> schedules;
  std::array<const DesBitsliceKeySchedule*, kLanes> ptrs;
  std::array<util::Bytes, kLanes> keys;
  for (std::size_t i = 0; i < kLanes; ++i) {
    keys[i] = rng.next_bytes(8);
    schedules[i] = DesBitsliceKeySchedule::from_key(keys[i]);
    ptrs[i] = &schedules[i];
  }
  DesBitslice bs;
  bs.set_lanes(ptrs);

  std::uint64_t blocks[kLanes];
  std::uint64_t seed[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = seed[i] = rng.next_u64();
  for (int iter = 0; iter < 1000; ++iter) bs.encrypt(blocks);
  for (std::size_t i = 0; i < kLanes; ++i) {
    const DesReference ref(keys[i]);
    std::uint64_t v = seed[i];
    for (int iter = 0; iter < 1000; ++iter) v = ref.encrypt_block(v);
    ASSERT_EQ(blocks[i], v) << "lane " << i;
  }
}

TEST(DesBitslice, AgreesWithTableDrivenCore) {
  // Tie all three implementations together: bitslice vs the production
  // table-driven Des (itself tested against DesReference round by round).
  util::SplitMix64 rng(107);
  const util::Bytes key = rng.next_bytes(8);
  const Des des(key);
  DesBitslice bs;
  bs.set_all_lanes(DesBitsliceKeySchedule::from_key(key));
  std::uint64_t blocks[kLanes];
  std::uint64_t pt[kLanes];
  for (std::size_t i = 0; i < kLanes; ++i) blocks[i] = pt[i] = rng.next_u64();
  bs.decrypt(blocks);
  for (std::size_t i = 0; i < kLanes; ++i) {
    ASSERT_EQ(blocks[i], des.decrypt_block(pt[i])) << "lane " << i;
  }
}

}  // namespace
}  // namespace fbs::crypto
