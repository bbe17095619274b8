#include "fbs/engine.hpp"

#include <gtest/gtest.h>

#include "support/world.hpp"

namespace fbs::core {
namespace {

using testing::TestWorld;

Datagram datagram(const Principal& src, const Principal& dst,
                  const std::string& body, std::uint16_t sport = 1000,
                  std::uint16_t dport = 23) {
  Datagram d;
  d.source = src;
  d.destination = dst;
  d.attrs.protocol = 6;
  d.attrs.source_address = src.ipv4().value;
  d.attrs.source_port = sport;
  d.attrs.destination_address = dst.ipv4().value;
  d.attrs.destination_port = dport;
  d.body = util::to_bytes(body);
  return d;
}

bool contains(const util::Bytes& haystack, const util::Bytes& needle) {
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : world_(303) {
    auto& a = world_.add_node("alice", "10.0.0.1");
    auto& b = world_.add_node("bob", "10.0.0.2");
    alice_ = std::make_unique<FbsEndpoint>(a.principal, config_, *a.keys,
                                           world_.clock, world_.rng);
    bob_ = std::make_unique<FbsEndpoint>(b.principal, config_, *b.keys,
                                         world_.clock, world_.rng);
  }

  ReceivedDatagram expect_accept(FbsEndpoint& receiver, const Principal& from,
                                 const util::Bytes& wire) {
    auto outcome = receiver.unprotect(from, wire);
    EXPECT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome))
        << (std::holds_alternative<ReceiveError>(outcome)
                ? to_string(std::get<ReceiveError>(outcome))
                : "");
    return std::get<ReceivedDatagram>(std::move(outcome));
  }

  ReceiveError expect_reject(FbsEndpoint& receiver, const Principal& from,
                             const util::Bytes& wire) {
    auto outcome = receiver.unprotect(from, wire);
    EXPECT_TRUE(std::holds_alternative<ReceiveError>(outcome));
    return std::get<ReceiveError>(outcome);
  }

  FbsConfig config_;
  TestWorld world_;
  std::unique_ptr<FbsEndpoint> alice_;
  std::unique_ptr<FbsEndpoint> bob_;
};

TEST_F(EngineTest, PlainRoundTrip) {
  const Datagram d =
      datagram(alice_->self(), bob_->self(), "authenticated only");
  const auto wire = alice_->protect(d, /*secret=*/false);
  ASSERT_TRUE(wire.has_value());
  const auto got = expect_accept(*bob_, alice_->self(), *wire);
  EXPECT_EQ(got.datagram.body, d.body);
  EXPECT_FALSE(got.was_secret);
}

TEST_F(EngineTest, SecretRoundTrip) {
  const Datagram d = datagram(alice_->self(), bob_->self(), "top secret");
  const auto wire = alice_->protect(d, true);
  ASSERT_TRUE(wire.has_value());
  EXPECT_FALSE(contains(*wire, d.body));  // plaintext not on the wire
  const auto got = expect_accept(*bob_, alice_->self(), *wire);
  EXPECT_EQ(got.datagram.body, d.body);
  EXPECT_TRUE(got.was_secret);
}

TEST_F(EngineTest, PlainModeLeavesBodyVisible) {
  const Datagram d = datagram(alice_->self(), bob_->self(), "readable body");
  const auto wire = alice_->protect(d, false);
  EXPECT_TRUE(contains(*wire, d.body));
}

TEST_F(EngineTest, SameFlowSameSflKeyDerivedOnce) {
  for (int i = 0; i < 20; ++i) {
    const auto wire = alice_->protect(
        datagram(alice_->self(), bob_->self(), "pkt"), true);
    ASSERT_TRUE(wire.has_value());
    (void)expect_accept(*bob_, alice_->self(), *wire);
  }
  EXPECT_EQ(alice_->send_stats().flow_keys_derived, 1u);
  EXPECT_EQ(bob_->receive_stats().flow_keys_derived, 1u);
  EXPECT_EQ(bob_->receive_stats().accepted, 20u);
}

TEST_F(EngineTest, DifferentTuplesDifferentSfls) {
  const auto w1 = alice_->protect(
      datagram(alice_->self(), bob_->self(), "a", 1000, 23), false);
  const auto w2 = alice_->protect(
      datagram(alice_->self(), bob_->self(), "b", 2000, 80), false);
  const auto r1 = expect_accept(*bob_, alice_->self(), *w1);
  const auto r2 = expect_accept(*bob_, alice_->self(), *w2);
  EXPECT_NE(r1.sfl, r2.sfl);
}

TEST_F(EngineTest, ConfounderVariesBetweenDatagrams) {
  const Datagram d = datagram(alice_->self(), bob_->self(), "same body");
  const auto w1 = alice_->protect(d, true);
  const auto w2 = alice_->protect(d, true);
  // Identical plaintext in the same flow must not repeat on the wire
  // (Section 5.2's confounder rationale).
  EXPECT_NE(*w1, *w2);
  const auto p1 = FbsHeader::parse(*w1);
  const auto p2 = FbsHeader::parse(*w2);
  EXPECT_NE(p1->header.confounder, p2->header.confounder);
  EXPECT_EQ(p1->header.sfl, p2->header.sfl);
}

TEST_F(EngineTest, TamperedWireNeverAccepted) {
  const Datagram d = datagram(alice_->self(), bob_->self(),
                              "integrity protected payload");
  const auto wire = alice_->protect(d, true);
  ASSERT_TRUE(wire.has_value());
  // Flip one bit at every byte position; nothing may be accepted as `d`.
  for (std::size_t pos = 0; pos < wire->size(); ++pos) {
    util::Bytes bad = *wire;
    bad[pos] ^= 0x01;
    auto outcome = bob_->unprotect(alice_->self(), bad);
    if (auto* got = std::get_if<ReceivedDatagram>(&outcome)) {
      // A flipped secret-bit or suite change must not reproduce the body.
      EXPECT_NE(got->datagram.body, d.body) << "pos " << pos;
    }
  }
}

TEST_F(EngineTest, TamperedBodyIsBadMac) {
  const auto wire = alice_->protect(
      datagram(alice_->self(), bob_->self(), "payload-payload"), false);
  util::Bytes bad = *wire;
  bad.back() ^= 0xFF;  // body byte (plain mode)
  EXPECT_EQ(expect_reject(*bob_, alice_->self(), bad), ReceiveError::kBadMac);
  EXPECT_EQ(bob_->receive_stats().rejected_bad_mac, 1u);
}

TEST_F(EngineTest, TruncatedWireMalformed) {
  const auto wire = alice_->protect(
      datagram(alice_->self(), bob_->self(), "x"), false);
  const util::Bytes cut(wire->begin(), wire->begin() + 5);
  EXPECT_EQ(expect_reject(*bob_, alice_->self(), cut),
            ReceiveError::kMalformed);
}

TEST_F(EngineTest, StaleTimestampRejected) {
  const auto wire = alice_->protect(
      datagram(alice_->self(), bob_->self(), "old"), false);
  world_.clock.advance(util::minutes(config_.freshness_window_minutes + 2));
  EXPECT_EQ(expect_reject(*bob_, alice_->self(), *wire),
            ReceiveError::kStale);
  EXPECT_EQ(bob_->receive_stats().rejected_stale, 1u);
}

TEST_F(EngineTest, WithinWindowReplayAcceptedByDefault) {
  // Paper behaviour (Section 6.2): replays inside the freshness window
  // succeed; higher layers must handle duplication.
  const auto wire = alice_->protect(
      datagram(alice_->self(), bob_->self(), "dup"), false);
  (void)expect_accept(*bob_, alice_->self(), *wire);
  (void)expect_accept(*bob_, alice_->self(), *wire);
  EXPECT_EQ(bob_->receive_stats().accepted, 2u);
}

TEST_F(EngineTest, StrictReplayExtensionRejectsSecondCopy) {
  FbsConfig strict = config_;
  strict.strict_replay = true;
  auto& b = world_["bob"];
  FbsEndpoint strict_bob(b.principal, strict, *b.keys, world_.clock,
                         world_.rng);
  const auto wire = alice_->protect(
      datagram(alice_->self(), strict_bob.self(), "once"), false);
  (void)expect_accept(strict_bob, alice_->self(), *wire);
  EXPECT_EQ(expect_reject(strict_bob, alice_->self(), *wire),
            ReceiveError::kReplay);
}

TEST_F(EngineTest, StrictReplayCacheNotPoisonedByForgedBody) {
  // Regression: an on-path attacker captures a datagram, corrupts the body,
  // and delivers the forgery *before* the genuine copy. The forgery still
  // carries the genuine (timestamp, MAC) pair; if the receiver recorded it
  // before MAC verification, the genuine datagram would then be rejected as
  // a replay -- a denial of service with no key material.
  FbsConfig strict = config_;
  strict.strict_replay = true;
  auto& b = world_["bob"];
  FbsEndpoint strict_bob(b.principal, strict, *b.keys, world_.clock,
                         world_.rng);
  const auto wire = alice_->protect(
      datagram(alice_->self(), strict_bob.self(), "genuine payload"), false);
  ASSERT_TRUE(wire.has_value());

  util::Bytes forged = *wire;
  forged.back() ^= 0x01;  // corrupt one body byte; header and MAC intact
  EXPECT_EQ(expect_reject(strict_bob, alice_->self(), forged),
            ReceiveError::kBadMac);

  // The genuine datagram must still be accepted...
  (void)expect_accept(strict_bob, alice_->self(), *wire);
  // ...and only now does its MAC enter the replay cache.
  EXPECT_EQ(expect_reject(strict_bob, alice_->self(), *wire),
            ReceiveError::kReplay);
}

TEST_F(EngineTest, UnknownSourceRejected) {
  const auto wire = alice_->protect(
      datagram(alice_->self(), bob_->self(), "hi"), false);
  const Principal stranger =
      Principal::from_ipv4(*net::Ipv4Address::parse("172.16.0.1"));
  EXPECT_EQ(expect_reject(*bob_, stranger, *wire),
            ReceiveError::kUnknownPeer);
}

TEST_F(EngineTest, MisattributedSourceFailsMac) {
  // Carol is known but did not send this datagram: her pair key yields a
  // different flow key, so the MAC cannot verify.
  auto& carol = world_.add_node("carol", "10.0.0.3");
  const auto wire = alice_->protect(
      datagram(alice_->self(), bob_->self(), "hi"), false);
  EXPECT_EQ(expect_reject(*bob_, carol.principal, *wire),
            ReceiveError::kBadMac);
}

TEST_F(EngineTest, ProtectFailsClosedWithoutPeerKey) {
  const Principal stranger =
      Principal::from_ipv4(*net::Ipv4Address::parse("172.16.0.9"));
  Datagram d = datagram(alice_->self(), stranger, "void");
  d.attrs.destination_address = stranger.ipv4().value;
  EXPECT_FALSE(alice_->protect(d, true).has_value());
  EXPECT_EQ(alice_->send_stats().key_unavailable, 1u);
}

TEST_F(EngineTest, RekeyChangesSflAndStillDelivers) {
  const Datagram d = datagram(alice_->self(), bob_->self(), "before");
  const auto w1 = alice_->protect(d, true);
  const auto r1 = expect_accept(*bob_, alice_->self(), *w1);
  alice_->rekey(d.attrs);
  const auto w2 = alice_->protect(d, true);
  const auto r2 = expect_accept(*bob_, alice_->self(), *w2);
  EXPECT_NE(r1.sfl, r2.sfl);
  EXPECT_EQ(r2.datagram.body, d.body);
}

TEST_F(EngineTest, FlowThresholdExpiryStartsNewFlow) {
  const Datagram d = datagram(alice_->self(), bob_->self(), "gap");
  const auto w1 = alice_->protect(d, false);
  const auto r1 = expect_accept(*bob_, alice_->self(), *w1);
  world_.clock.advance(config_.flow_threshold + util::seconds(1));
  const auto w2 = alice_->protect(d, false);
  const auto r2 = expect_accept(*bob_, alice_->self(), *w2);
  EXPECT_NE(r1.sfl, r2.sfl);
  EXPECT_EQ(alice_->send_stats().flow_keys_derived, 2u);
}

TEST_F(EngineTest, SplitModeMatchesCombinedBehaviour) {
  FbsConfig split = config_;
  split.combined_fst_tfkc = false;
  auto& a = world_["alice"];
  FbsEndpoint split_alice(a.principal, split, *a.keys, world_.clock,
                          world_.rng);
  const Datagram d = datagram(split_alice.self(), bob_->self(), "split mode");
  Sfl sfl = 0;
  for (int i = 0; i < 5; ++i) {
    const auto wire = split_alice.protect(d, true);
    ASSERT_TRUE(wire.has_value());
    const auto got = expect_accept(*bob_, split_alice.self(), *wire);
    if (i == 0) sfl = got.sfl;
    EXPECT_EQ(got.sfl, sfl);
    EXPECT_EQ(got.datagram.body, d.body);
  }
  EXPECT_EQ(split_alice.send_stats().flow_keys_derived, 1u);
  EXPECT_EQ(split_alice.policy().stats().flows_created, 1u);
}

TEST_F(EngineTest, SplitModeRekey) {
  FbsConfig split = config_;
  split.combined_fst_tfkc = false;
  auto& a = world_["alice"];
  FbsEndpoint e(a.principal, split, *a.keys, world_.clock, world_.rng);
  const Datagram d = datagram(e.self(), bob_->self(), "x");
  const auto r1 = expect_accept(*bob_, e.self(), *e.protect(d, false));
  e.rekey(d.attrs);
  const auto r2 = expect_accept(*bob_, e.self(), *e.protect(d, false));
  EXPECT_NE(r1.sfl, r2.sfl);
}

TEST_F(EngineTest, SweepExpiresIdleFlowsInSplitMode) {
  FbsConfig split = config_;
  split.combined_fst_tfkc = false;
  auto& a = world_["alice"];
  FbsEndpoint e(a.principal, split, *a.keys, world_.clock, world_.rng);
  (void)e.protect(datagram(e.self(), bob_->self(), "x"), false);
  world_.clock.advance(config_.flow_threshold + util::seconds(1));
  EXPECT_EQ(e.sweep(), 1u);
}

TEST_F(EngineTest, HeaderOverheadMatchesWireGrowth) {
  const Datagram d = datagram(alice_->self(), bob_->self(), "overhead");
  const auto wire = alice_->protect(d, false);  // plain: body unpadded
  EXPECT_EQ(wire->size(), d.body.size() + alice_->header_overhead());
}

TEST_F(EngineTest, EmptyBodyRoundTrip) {
  Datagram d = datagram(alice_->self(), bob_->self(), "");
  for (bool secret : {false, true}) {
    const auto wire = alice_->protect(d, secret);
    ASSERT_TRUE(wire.has_value());
    const auto got = expect_accept(*bob_, alice_->self(), *wire);
    EXPECT_TRUE(got.datagram.body.empty());
  }
}

TEST_F(EngineTest, LargeBodyRoundTrip) {
  Datagram d = datagram(alice_->self(), bob_->self(), "");
  d.body = world_.rng.next_bytes(60000);
  const auto wire = alice_->protect(d, true);
  ASSERT_TRUE(wire.has_value());
  const auto got = expect_accept(*bob_, alice_->self(), *wire);
  EXPECT_EQ(got.datagram.body, d.body);
}

TEST_F(EngineTest, DuplexFlowsAreIndependent) {
  // Flows are unidirectional: alice->bob and bob->alice get distinct sfls
  // and keys, and each direction verifies correctly.
  const auto w_ab = alice_->protect(
      datagram(alice_->self(), bob_->self(), "ping"), true);
  Datagram back = datagram(bob_->self(), alice_->self(), "pong", 23, 1000);
  const auto w_ba = bob_->protect(back, true);
  const auto r_ab = expect_accept(*bob_, alice_->self(), *w_ab);
  const auto r_ba = expect_accept(*alice_, bob_->self(), *w_ba);
  EXPECT_NE(r_ab.sfl, r_ba.sfl);
  EXPECT_EQ(r_ab.datagram.body, util::to_bytes("ping"));
  EXPECT_EQ(r_ba.datagram.body, util::to_bytes("pong"));
}

struct SuiteCase {
  crypto::MacAlgorithm mac;
  crypto::CipherAlgorithm cipher;
  bool secret;
};

class SuiteSweep : public ::testing::TestWithParam<SuiteCase> {};

TEST_P(SuiteSweep, RoundTripUnderEverySuite) {
  const SuiteCase param = GetParam();
  TestWorld world(404);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig cfg;
  cfg.suite.mac = param.mac;
  cfg.suite.cipher = param.cipher;
  cfg.trace_stages = true;
  FbsEndpoint sender(a.principal, cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint receiver(b.principal, cfg, *b.keys, world.clock, world.rng);

  Datagram d;
  d.source = a.principal;
  d.destination = b.principal;
  d.attrs.protocol = 17;
  d.attrs.source_port = 111;
  d.attrs.destination_port = 222;
  d.body = util::to_bytes("suite sweep payload, long enough to span blocks");

  const auto wire = sender.protect(d, param.secret);
  ASSERT_TRUE(wire.has_value());
  auto outcome = receiver.unprotect(a.principal, *wire);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
  EXPECT_EQ(std::get<ReceivedDatagram>(outcome).datagram.body, d.body);
  // Every secret DES-CBC suite seals in the single fused pass, whatever
  // its MAC; the others MAC and encrypt separately.
  const bool fused = param.secret &&
                     param.cipher == crypto::CipherAlgorithm::kDesCbc;
  EXPECT_EQ(sender.tracer().recorder(obs::Stage::kSendFused).count(),
            fused ? 1u : 0u);
  EXPECT_EQ(sender.tracer().recorder(obs::Stage::kSendMac).count(),
            fused ? 0u : 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Suites, SuiteSweep,
    ::testing::Values(
        SuiteCase{crypto::MacAlgorithm::kKeyedMd5,
                  crypto::CipherAlgorithm::kDesCbc, true},
        SuiteCase{crypto::MacAlgorithm::kKeyedMd5,
                  crypto::CipherAlgorithm::kDesEcb, true},
        SuiteCase{crypto::MacAlgorithm::kKeyedMd5,
                  crypto::CipherAlgorithm::kDesCfb, true},
        SuiteCase{crypto::MacAlgorithm::kKeyedMd5,
                  crypto::CipherAlgorithm::kDesOfb, true},
        SuiteCase{crypto::MacAlgorithm::kHmacMd5,
                  crypto::CipherAlgorithm::kDesCbc, true},
        SuiteCase{crypto::MacAlgorithm::kKeyedSha1,
                  crypto::CipherAlgorithm::kDesCbc, true},
        SuiteCase{crypto::MacAlgorithm::kHmacSha1,
                  crypto::CipherAlgorithm::kDesCbc, true},
        SuiteCase{crypto::MacAlgorithm::kKeyedMd5,
                  crypto::CipherAlgorithm::kDes3Ede, true},
        SuiteCase{crypto::MacAlgorithm::kHmacSha1,
                  crypto::CipherAlgorithm::kDes3Ede, true},
        SuiteCase{crypto::MacAlgorithm::kKeyedMd5,
                  crypto::CipherAlgorithm::kNone, false},
        SuiteCase{crypto::MacAlgorithm::kHmacSha1,
                  crypto::CipherAlgorithm::kNone, false}));

TEST(Des3Negotiation, TripleDesChangesTheWireAndSurvivesTampering) {
  // Same flow, same bodies, two sender configurations: the kDes3Ede wire
  // must differ from the kDesCbc wire beyond the suite byte (different
  // cipher actually engaged), the receiver must honor the wire-negotiated
  // suite without any configuration of its own, and bit flips anywhere in
  // the 3DES ciphertext must still land on kBadMac/kDecryptFailed.
  TestWorld world(505);
  auto& a = world.add_node("a", "10.0.0.1");
  auto& b = world.add_node("b", "10.0.0.2");
  FbsConfig des_cfg;  // default: keyed MD5 + DES-CBC
  FbsConfig des3_cfg;
  des3_cfg.suite.cipher = crypto::CipherAlgorithm::kDes3Ede;
  FbsEndpoint send_des(a.principal, des_cfg, *a.keys, world.clock, world.rng);
  FbsEndpoint send_des3(a.principal, des3_cfg, *a.keys, world.clock,
                        world.rng);
  FbsEndpoint receiver(b.principal, des_cfg, *b.keys, world.clock, world.rng);

  Datagram d;
  d.source = a.principal;
  d.destination = b.principal;
  d.attrs.protocol = 17;
  d.attrs.source_port = 111;
  d.attrs.destination_port = 222;
  d.body = util::to_bytes("the same payload under both cipher suites");

  const auto wire3 = send_des3.protect(d, /*secret=*/true);
  ASSERT_TRUE(wire3.has_value());
  auto outcome = receiver.unprotect(a.principal, *wire3);
  ASSERT_TRUE(std::holds_alternative<ReceivedDatagram>(outcome));
  const auto& got = std::get<ReceivedDatagram>(outcome);
  EXPECT_EQ(got.datagram.body, d.body);
  EXPECT_EQ(got.suite.cipher, crypto::CipherAlgorithm::kDes3Ede);

  // Distinct cipher => distinct ciphertext bytes for the same plaintext
  // (compare only the bodies; headers differ in suite/confounder anyway).
  const auto wire1 = send_des.protect(d, /*secret=*/true);
  ASSERT_TRUE(wire1.has_value());
  ASSERT_EQ(wire1->size(), wire3->size());
  util::Bytes body1(wire1->begin() + 34, wire1->end());
  util::Bytes body3(wire3->begin() + 34, wire3->end());
  EXPECT_NE(body1, body3);

  for (std::size_t i = 34; i < wire3->size(); i += 7) {
    util::Bytes tampered = *wire3;
    tampered[i] ^= 0x01;
    auto bad = receiver.unprotect(a.principal, tampered);
    ASSERT_TRUE(std::holds_alternative<ReceiveError>(bad)) << i;
    const ReceiveError err = std::get<ReceiveError>(bad);
    EXPECT_TRUE(err == ReceiveError::kBadMac ||
                err == ReceiveError::kDecryptFailed)
        << i << ": " << to_string(err);
  }
}

}  // namespace
}  // namespace fbs::core
