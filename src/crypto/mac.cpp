#include "crypto/mac.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace fbs::crypto {

namespace {

/// MD5 and SHA-1 share a 64-byte block.
constexpr std::size_t kHashBlockSize = Md5::kBlockSize;
static_assert(Sha1::kBlockSize == kHashBlockSize);

/// Call fn on the hash a state holds, if any (the null MAC holds none).
template <typename State, typename Fn>
void with_hash(State& state, Fn&& fn) {
  std::visit(
      [&](auto& h) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(h)>,
                                      std::monostate>)
          fn(h);
      },
      state);
}

}  // namespace

void MacContext::compute_into(std::initializer_list<util::BytesView> chunks,
                              std::uint8_t* out) const {
  MacRun run(*this);
  for (const util::BytesView c : chunks) run.update(c);
  run.finish_into(out);
}

void MacRun::update(util::BytesView chunk) {
  with_hash(work_, [&](auto& h) { h.update(chunk); });
}

void MacRun::finish_into(std::uint8_t* out) {
  if (std::holds_alternative<std::monostate>(work_)) {
    std::memset(out, 0, mac_.size_);
    return;
  }
  if (!mac_.hmac_) {
    with_hash(work_, [&](auto& h) { h.finish_into(out); });
    return;
  }
  // HMAC: H(K ^ opad | H(K ^ ipad | message)), both pad states precomputed.
  std::uint8_t inner_digest[kMaxMacSize];
  with_hash(work_, [&](auto& h) { h.finish_into(inner_digest); });
  work_ = mac_.outer_;
  with_hash(work_, [&](auto& h) {
    h.update({inner_digest, h.kDigestSize});
    h.finish_into(out);
  });
}

MacContext Mac::make_context(util::BytesView key) const {
  MacContext ctx;
  ctx.size_ = static_cast<std::uint8_t>(mac_size());
  switch (alg_) {
    case MacAlgorithm::kKeyedMd5:
    case MacAlgorithm::kHmacMd5:
      ctx.inner_ = Md5{};
      break;
    case MacAlgorithm::kKeyedSha1:
    case MacAlgorithm::kHmacSha1:
      ctx.inner_ = Sha1{};
      break;
    case MacAlgorithm::kNull:
      return ctx;
    default:
      throw std::invalid_argument("Mac: unknown algorithm");
  }
  ctx.hmac_ =
      alg_ == MacAlgorithm::kHmacMd5 || alg_ == MacAlgorithm::kHmacSha1;
  if (!ctx.hmac_) {
    with_hash(ctx.inner_, [&](auto& h) { h.update(key); });
    return ctx;
  }
  ctx.outer_ = ctx.inner_;
  // Keys longer than a block are hashed first (RFC 2104); the padded key
  // block is stack scratch, absorbed into the two pad states here once.
  std::uint8_t k[kHashBlockSize] = {};
  if (key.size() > kHashBlockSize) {
    MacContext::State t = ctx.inner_;
    with_hash(t, [&](auto& h) {
      h.update(key);
      h.finish_into(k);
    });
  } else {
    std::copy(key.begin(), key.end(), k);
  }
  std::uint8_t pad[kHashBlockSize];
  for (std::size_t i = 0; i < kHashBlockSize; ++i) pad[i] = k[i] ^ 0x36;
  with_hash(ctx.inner_, [&](auto& h) { h.update(pad); });
  for (std::size_t i = 0; i < kHashBlockSize; ++i) pad[i] = k[i] ^ 0x5c;
  with_hash(ctx.outer_, [&](auto& h) { h.update(pad); });
  return ctx;
}

}  // namespace fbs::crypto
