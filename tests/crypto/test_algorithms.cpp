#include "crypto/algorithms.hpp"

#include <gtest/gtest.h>

namespace fbs::crypto {
namespace {

TEST(Algorithms, DefaultSuiteIsPaperSuite) {
  const AlgorithmSuite s = default_suite();
  EXPECT_EQ(s.mac, MacAlgorithm::kKeyedMd5);
  EXPECT_EQ(s.cipher, CipherAlgorithm::kDesCbc);
}

TEST(Algorithms, EncodeDecodeRoundTripAllSuites) {
  for (auto mac : {MacAlgorithm::kKeyedMd5, MacAlgorithm::kHmacMd5,
                   MacAlgorithm::kKeyedSha1, MacAlgorithm::kHmacSha1}) {
    for (auto cipher :
         {CipherAlgorithm::kNone, CipherAlgorithm::kDesCbc,
          CipherAlgorithm::kDesEcb, CipherAlgorithm::kDesCfb,
          CipherAlgorithm::kDesOfb, CipherAlgorithm::kDes3Ede}) {
      const AlgorithmSuite suite{mac, cipher};
      const auto decoded = decode_suite(encode_suite(suite));
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, suite);
    }
  }
}

TEST(Algorithms, DecodeRejectsUnknownValues) {
  EXPECT_FALSE(decode_suite(0x00).has_value());  // MAC 0 invalid
  EXPECT_FALSE(decode_suite(0xF1).has_value());  // MAC 15 invalid
  EXPECT_FALSE(decode_suite(0x1F).has_value());  // cipher 15 invalid
}

TEST(Algorithms, ExhaustiveWireByteSweep) {
  // All 256 wire bytes: the decodable set is exactly {known MAC nibble} x
  // {known cipher nibble}, every decode re-encodes to the same byte (no
  // aliasing of unknown nibbles onto known suites), and every valid suite's
  // MAC factory works. This is the suite-registry contract the fuzz corpus
  // leans on: an attacker-controlled suite byte either round-trips exactly
  // or is rejected.
  for (unsigned wire = 0; wire < 256; ++wire) {
    const auto byte = static_cast<std::uint8_t>(wire);
    const unsigned mac_nibble = wire >> 4;
    const unsigned cipher_nibble = wire & 0x0F;
    const bool mac_known = mac_nibble >= 1 && mac_nibble <= 5;
    const bool cipher_known = cipher_nibble <= 5;
    const auto decoded = decode_suite(byte);
    ASSERT_EQ(decoded.has_value(), mac_known && cipher_known)
        << "wire byte 0x" << std::hex << wire;
    if (!decoded) continue;
    EXPECT_EQ(encode_suite(*decoded), byte) << "wire byte 0x" << std::hex
                                            << wire;
    EXPECT_EQ(static_cast<unsigned>(decoded->mac), mac_nibble);
    EXPECT_EQ(static_cast<unsigned>(decoded->cipher), cipher_nibble);
    EXPECT_NE(make_mac(decoded->mac), nullptr);
  }
}

TEST(Algorithms, Des3EdeRegistryEntries) {
  EXPECT_EQ(*cipher_mode(CipherAlgorithm::kDes3Ede), CipherMode::kCbc);
  const AlgorithmSuite suite{MacAlgorithm::kKeyedMd5,
                             CipherAlgorithm::kDes3Ede};
  const auto decoded = decode_suite(encode_suite(suite));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, suite);
}

TEST(Algorithms, MacFactoryProducesWorkingMacs) {
  const util::Bytes key = util::to_bytes("k");
  const util::Bytes msg = util::to_bytes("m");
  for (auto alg : {MacAlgorithm::kKeyedMd5, MacAlgorithm::kHmacMd5,
                   MacAlgorithm::kKeyedSha1, MacAlgorithm::kHmacSha1}) {
    const auto mac = make_mac(alg);
    ASSERT_NE(mac, nullptr);
    EXPECT_EQ(mac->algorithm(), alg);
    const MacContext ctx = mac->make_context(key);
    util::Bytes tag(ctx.mac_size());
    ctx.compute_into({msg}, tag.data());
    EXPECT_EQ(tag.size(), mac_size(alg));
    EXPECT_EQ(tag.size(), mac->mac_size());
  }
  EXPECT_EQ(make_mac(static_cast<MacAlgorithm>(0)), nullptr);
}

TEST(Algorithms, MacSizes) {
  EXPECT_EQ(mac_size(MacAlgorithm::kKeyedMd5), 16u);
  EXPECT_EQ(mac_size(MacAlgorithm::kHmacMd5), 16u);
  EXPECT_EQ(mac_size(MacAlgorithm::kKeyedSha1), 20u);
  EXPECT_EQ(mac_size(MacAlgorithm::kHmacSha1), 20u);
}

TEST(Algorithms, CipherModeMapping) {
  EXPECT_FALSE(cipher_mode(CipherAlgorithm::kNone).has_value());
  EXPECT_EQ(*cipher_mode(CipherAlgorithm::kDesCbc), CipherMode::kCbc);
  EXPECT_EQ(*cipher_mode(CipherAlgorithm::kDesEcb), CipherMode::kEcb);
  EXPECT_EQ(*cipher_mode(CipherAlgorithm::kDesCfb), CipherMode::kCfb);
  EXPECT_EQ(*cipher_mode(CipherAlgorithm::kDesOfb), CipherMode::kOfb);
}

TEST(Algorithms, DistinctSuitesDistinctWireBytes) {
  const AlgorithmSuite a{MacAlgorithm::kKeyedMd5, CipherAlgorithm::kDesCbc};
  const AlgorithmSuite b{MacAlgorithm::kHmacSha1, CipherAlgorithm::kNone};
  EXPECT_NE(encode_suite(a), encode_suite(b));
}

}  // namespace
}  // namespace fbs::crypto
