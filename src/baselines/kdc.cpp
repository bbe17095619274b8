#include "baselines/kdc.hpp"

#include "crypto/block_modes.hpp"
#include "crypto/des.hpp"
#include "crypto/mac.hpp"
#include "crypto/md5.hpp"

namespace fbs::baselines {

namespace {

constexpr std::size_t kSessionKeySize = 8;

crypto::Des des_for(util::BytesView key) {
  return crypto::Des(key.subspan(0, crypto::Des::kKeySize));
}

}  // namespace

util::Bytes KeyDistributionCenter::enroll(const core::Principal& p) {
  util::Bytes secret = rng_.next_bytes(kSessionKeySize);
  secrets_[p.address] = secret;
  return secret;
}

std::optional<KeyDistributionCenter::TicketReply>
KeyDistributionCenter::request(const core::Principal& source,
                               const core::Principal& destination) {
  ++requests_;
  if (clock_) clock_->advance(rtt_);
  const auto src = secrets_.find(source.address);
  const auto dst = secrets_.find(destination.address);
  if (src == secrets_.end() || dst == secrets_.end()) return std::nullopt;

  const util::Bytes session_key = rng_.next_bytes(kSessionKeySize);
  TicketReply reply;
  reply.session_key = crypto::encrypt(des_for(src->second),
                                      crypto::CipherMode::kEcb, 0, session_key);
  // The ticket binds the source's address to the session key so the
  // destination knows who it shares the key with.
  util::ByteWriter t;
  t.u32(static_cast<std::uint32_t>(source.address.size()));
  t.bytes(source.address);
  t.bytes(session_key);
  reply.ticket = crypto::encrypt(des_for(dst->second),
                                 crypto::CipherMode::kEcb, 0, t.view());
  return reply;
}

std::optional<util::Bytes> KdcSessionProtocol::protect(
    const core::Datagram& d) {
  auto it = send_sessions_.find(d.destination.address);
  if (it == send_sessions_.end()) {
    // Session setup: the extra message exchange FBS is designed to avoid.
    ++setups_;
    auto reply = kdc_.request(self_, d.destination);
    if (!reply) return std::nullopt;
    const auto key = crypto::decrypt(des_for(secret_),
                                     crypto::CipherMode::kEcb, 0,
                                     reply->session_key);
    if (!key) return std::nullopt;
    it = send_sessions_
             .emplace(d.destination.address, Session{*key, reply->ticket})
             .first;
  }
  const Session& session = it->second;

  const crypto::Des des(session.key);
  const std::uint64_t iv = iv_gen_.next_u64();
  util::ByteWriter iv_bytes(8);
  iv_bytes.u64(iv);
  std::uint8_t tag[crypto::Md5::kDigestSize];
  crypto::Mac(crypto::MacAlgorithm::kKeyedMd5)
      .make_context(session.key)
      .compute_into({iv_bytes.view(), d.body}, tag);

  util::ByteWriter w;
  w.u16(static_cast<std::uint16_t>(session.ticket.size()));
  w.bytes(session.ticket);
  w.u64(iv);
  w.bytes(tag);
  w.bytes(crypto::encrypt(des, crypto::CipherMode::kCbc, iv, d.body));
  return w.take();
}

std::optional<util::Bytes> KdcSessionProtocol::unprotect(
    const core::Principal& source, util::BytesView wire) {
  util::ByteReader r(wire);
  const auto ticket_len = r.u16();
  if (!ticket_len) return std::nullopt;
  const auto ticket = r.bytes(*ticket_len);
  const auto iv = r.u64();
  const auto tag = r.bytes(crypto::Md5::kDigestSize);
  if (!ticket || !iv || !tag) return std::nullopt;

  auto it = receive_sessions_.find(source.address);
  if (it == receive_sessions_.end()) {
    // First contact: recover the session key from the ticket.
    const auto opened = crypto::decrypt(des_for(secret_),
                                        crypto::CipherMode::kEcb, 0, *ticket);
    if (!opened) return std::nullopt;
    util::ByteReader tr(*opened);
    const auto addr_len = tr.u32();
    if (!addr_len) return std::nullopt;
    const auto claimed = tr.bytes(*addr_len);
    const auto key = tr.bytes(kSessionKeySize);
    if (!claimed || !key) return std::nullopt;
    if (*claimed != source.address) return std::nullopt;  // ticket mismatch
    it = receive_sessions_.emplace(source.address, *key).first;
  }
  const util::Bytes& key = it->second;

  const crypto::Des des(key);
  auto body = crypto::decrypt(des, crypto::CipherMode::kCbc, *iv, r.rest());
  if (!body) return std::nullopt;

  util::ByteWriter iv_bytes(8);
  iv_bytes.u64(*iv);
  std::uint8_t expected[crypto::Md5::kDigestSize];
  crypto::Mac(crypto::MacAlgorithm::kKeyedMd5)
      .make_context(key)
      .compute_into({iv_bytes.view(), *body}, expected);
  if (!util::ct_equal(expected, *tag)) return std::nullopt;
  return body;
}

void KdcSessionProtocol::teardown(const core::Principal& peer) {
  send_sessions_.erase(peer.address);
  receive_sessions_.erase(peer.address);
}

}  // namespace fbs::baselines
