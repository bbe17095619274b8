#include "baselines/hostpair.hpp"

#include <gtest/gtest.h>

#include "support/world.hpp"

namespace fbs::baselines {
namespace {

using fbs::testing::TestWorld;

class HostPairTest : public ::testing::Test {
 protected:
  HostPairTest() : world_(707) {
    auto& a = world_.add_node("a", "10.0.0.1");
    auto& b = world_.add_node("b", "10.0.0.2");
    alice_ = std::make_unique<HostPairProtocol>(a.principal, *a.keys,
                                                world_.rng);
    bob_ = std::make_unique<HostPairProtocol>(b.principal, *b.keys,
                                              world_.rng);
  }

  core::Datagram dgram(const std::string& body) {
    core::Datagram d;
    d.source = world_["a"].principal;
    d.destination = world_["b"].principal;
    d.body = util::to_bytes(body);
    return d;
  }

  TestWorld world_;
  std::unique_ptr<HostPairProtocol> alice_;
  std::unique_ptr<HostPairProtocol> bob_;
};

TEST(MasterKeyDes, ShortMasterKeyIsZeroPadded) {
  // The test group's K_{S,D} is a few bytes long; the DES key is its
  // prefix, zero-padded, and nothing past its end is read.
  const util::Bytes short_key = {0x5b, 0xd4, 0x38, 0xeb};
  const util::Bytes padded = {0x5b, 0xd4, 0x38, 0xeb, 0, 0, 0, 0};
  EXPECT_EQ(master_key_des(short_key).encrypt_block(42),
            crypto::Des(padded).encrypt_block(42));
  const util::Bytes long_key = util::to_bytes("0123456789abcdef");
  EXPECT_EQ(master_key_des(long_key).encrypt_block(42),
            crypto::Des(util::BytesView(long_key).first(8)).encrypt_block(42));
}

TEST_F(HostPairTest, RoundTrip) {
  const auto wire = alice_->protect(dgram("host pair payload"));
  ASSERT_TRUE(wire.has_value());
  const auto back = bob_->unprotect(world_["a"].principal, *wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, util::to_bytes("host pair payload"));
}

TEST_F(HostPairTest, CiphertextHidesPlaintext) {
  const util::Bytes body = util::to_bytes("confidential but fragile");
  const auto wire = alice_->protect(dgram("confidential but fragile"));
  EXPECT_EQ(std::search(wire->begin(), wire->end(), body.begin(), body.end()),
            wire->end());
}

TEST_F(HostPairTest, UnknownPeerFails) {
  core::Datagram d = dgram("x");
  d.destination =
      core::Principal::from_ipv4(*net::Ipv4Address::parse("9.9.9.9"));
  EXPECT_FALSE(alice_->protect(d).has_value());
}

TEST_F(HostPairTest, CutAndPasteSucceeds) {
  // THE vulnerability (Section 2.2): all traffic between the host pair uses
  // one key, and there is no MAC. An attacker can swap entire encrypted
  // payloads between datagrams -- both decrypt "successfully" and the
  // receiver cannot tell.
  const auto wire1 = alice_->protect(dgram("payment to carol: $10"));
  const auto wire2 = alice_->protect(dgram("payment to mallet: $99"));
  ASSERT_TRUE(wire1 && wire2);

  // Mallet swaps the payloads (keeping each wire's own IV prefix intact
  // would garble the first block; swapping whole wires is the trivial
  // variant -- datagram 1's slot now carries datagram 2's content).
  const auto spliced = bob_->unprotect(world_["a"].principal, *wire2);
  ASSERT_TRUE(spliced.has_value());
  EXPECT_EQ(*spliced, util::to_bytes("payment to mallet: $99"));
  // No integrity check exists to bind a payload to its datagram: the swap
  // is undetectable by construction.
}

TEST_F(HostPairTest, TamperedCiphertextStillDecrypts) {
  // Contrast with FBS: bit flips in the ciphertext yield garbage that the
  // receiver happily delivers (no MAC) -- unless PKCS#7 happens to break.
  const auto wire = alice_->protect(dgram("aaaaaaaaaaaaaaaaaaaaaaaaaaaaa"));
  util::Bytes bad = *wire;
  bad[8] ^= 0xFF;  // first ciphertext block
  const auto back = bob_->unprotect(world_["a"].principal, bad);
  if (back.has_value()) {
    EXPECT_NE(*back, util::to_bytes("aaaaaaaaaaaaaaaaaaaaaaaaaaaaa"));
  }
  // Either way: no reliable detection. This test documents the weakness.
}

TEST_F(HostPairTest, AllFlowsShareOneKey) {
  // Two datagrams from different "conversations" decrypt with the same
  // master key -- compromise of that key exposes everything.
  const auto w1 = alice_->protect(dgram("telnet session"));
  const auto w2 = alice_->protect(dgram("nfs traffic"));
  EXPECT_TRUE(bob_->unprotect(world_["a"].principal, *w1).has_value());
  EXPECT_TRUE(bob_->unprotect(world_["a"].principal, *w2).has_value());
  // (Same KeyManager entry used for both -- one upcall total.)
  EXPECT_EQ(world_["a"].mkd->stats().master_keys_computed, 1u);
}

}  // namespace
}  // namespace fbs::baselines
