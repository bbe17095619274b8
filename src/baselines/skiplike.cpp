#include "baselines/skiplike.hpp"

#include "crypto/block_modes.hpp"
#include "crypto/des.hpp"
#include "crypto/mac.hpp"
#include "crypto/md5.hpp"

namespace fbs::baselines {

util::Bytes SkipLikeProtocol::packet_key(util::BytesView master,
                                         std::uint64_t counter,
                                         const core::Principal& S,
                                         const core::Principal& D) {
  ++keys_derived_;
  crypto::Md5 h;
  util::ByteWriter n(8);
  n.u64(counter);
  h.update(master);
  h.update(n.view());
  h.update(S.address);
  h.update(D.address);
  return h.finish();
}

std::optional<util::Bytes> SkipLikeProtocol::protect(const core::Datagram& d) {
  const auto master = keys_.master_key(d.destination);
  if (!master) return std::nullopt;
  const std::uint64_t n = counter_++;
  const util::Bytes key = packet_key(*master, n, self_, d.destination);

  const crypto::Des des(util::BytesView(key).subspan(0, crypto::Des::kKeySize));
  const std::uint64_t iv = iv_gen_.next_u64();
  util::ByteWriter iv_bytes(8);
  iv_bytes.u64(iv);
  std::uint8_t tag[crypto::Md5::kDigestSize];
  crypto::Mac(crypto::MacAlgorithm::kKeyedMd5)
      .make_context(key)
      .compute_into({iv_bytes.view(), d.body}, tag);

  util::ByteWriter w;
  w.u64(n);
  w.u64(iv);
  w.bytes(tag);
  w.bytes(crypto::encrypt(des, crypto::CipherMode::kCbc, iv, d.body));
  return w.take();
}

std::optional<util::Bytes> SkipLikeProtocol::unprotect(
    const core::Principal& source, util::BytesView wire) {
  util::ByteReader r(wire);
  const auto n = r.u64();
  const auto iv = r.u64();
  const auto tag = r.bytes(crypto::Md5::kDigestSize);
  if (!n || !iv || !tag) return std::nullopt;

  const auto master = keys_.master_key(source);
  if (!master) return std::nullopt;
  const util::Bytes key = packet_key(*master, *n, source, self_);

  const crypto::Des des(util::BytesView(key).subspan(0, crypto::Des::kKeySize));
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

}  // namespace fbs::baselines
