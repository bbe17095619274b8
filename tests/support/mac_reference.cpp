#include "support/mac_reference.hpp"

#include <stdexcept>

namespace fbs::crypto {

namespace {

template <class Hash>
util::Bytes keyed_prefix(util::BytesView key,
                         std::initializer_list<util::BytesView> chunks) {
  Hash h;
  h.update(key);
  for (const util::BytesView c : chunks) h.update(c);
  return h.finish();
}

template <class Hash>
util::Bytes hmac(util::BytesView key,
                 std::initializer_list<util::BytesView> chunks) {
  constexpr std::size_t block = Hash::kBlockSize;
  // Keys longer than a block are hashed first (RFC 2104).
  util::Bytes k(key.begin(), key.end());
  if (k.size() > block) k = keyed_prefix<Hash>(k, {});
  k.resize(block, 0);

  util::Bytes ipad(block), opad(block);
  for (std::size_t i = 0; i < block; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Hash inner;
  inner.update(ipad);
  for (const util::BytesView c : chunks) inner.update(c);
  const util::Bytes inner_digest = inner.finish();
  return keyed_prefix<Hash>(opad, {inner_digest});
}

}  // namespace

util::Bytes mac_reference(MacAlgorithm alg, util::BytesView key,
                          std::initializer_list<util::BytesView> chunks) {
  switch (alg) {
    case MacAlgorithm::kKeyedMd5: return keyed_prefix<Md5>(key, chunks);
    case MacAlgorithm::kHmacMd5: return hmac<Md5>(key, chunks);
    case MacAlgorithm::kKeyedSha1: return keyed_prefix<Sha1>(key, chunks);
    case MacAlgorithm::kHmacSha1: return hmac<Sha1>(key, chunks);
    case MacAlgorithm::kNull: return util::Bytes(16, 0);
  }
  throw std::invalid_argument("mac_reference: unknown algorithm");
}

}  // namespace fbs::crypto
