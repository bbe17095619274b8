#include "crypto/mac.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace fbs::crypto {

namespace {

/// Large enough for any digest (MD5 = 16, SHA-1 = 20) or block (64 bytes
/// for both).
constexpr std::size_t kMaxDigestSize = 64;

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

/// A reset state of the same algorithm as `hash`.
template <typename State>
State fresh_state(const Hash& hash) {
  if (dynamic_cast<const Md5*>(&hash)) return Md5{};
  if (dynamic_cast<const Sha1*>(&hash)) return Sha1{};
  throw std::invalid_argument("MacContext: unsupported hash");
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
  std::uint8_t inner_digest[kMaxDigestSize];
  with_hash(work_, [&](auto& h) { h.finish_into(inner_digest); });
  work_ = mac_.outer_;
  with_hash(work_, [&](auto& h) {
    h.update({inner_digest, h.digest_size()});
    h.finish_into(out);
  });
}

MacContext KeyedPrefixMac::make_context(util::BytesView key) const {
  MacContext ctx;
  ctx.size_ = static_cast<std::uint8_t>(hash_->digest_size());
  ctx.inner_ = fresh_state<MacContext::State>(*hash_);
  with_hash(ctx.inner_, [&](auto& h) { h.update(key); });
  return ctx;
}

MacContext HmacMac::make_context(util::BytesView key) const {
  MacContext ctx;
  ctx.size_ = static_cast<std::uint8_t>(hash_->digest_size());
  ctx.hmac_ = true;
  ctx.inner_ = fresh_state<MacContext::State>(*hash_);
  ctx.outer_ = ctx.inner_;
  // Keys longer than a block are hashed first (RFC 2104); the padded key
  // block is stack scratch, absorbed into the two pad states here once.
  const std::size_t block = hash_->block_size();
  std::uint8_t k[kMaxDigestSize] = {};
  if (key.size() > block) {
    MacContext::State t = ctx.inner_;
    with_hash(t, [&](auto& h) {
      h.update(key);
      h.finish_into(k);
    });
  } else {
    std::copy(key.begin(), key.end(), k);
  }
  std::uint8_t pad[kMaxDigestSize];
  for (std::size_t i = 0; i < block; ++i) pad[i] = k[i] ^ 0x36;
  with_hash(ctx.inner_, [&](auto& h) { h.update({pad, block}); });
  for (std::size_t i = 0; i < block; ++i) pad[i] = k[i] ^ 0x5c;
  with_hash(ctx.outer_, [&](auto& h) { h.update({pad, block}); });
  return ctx;
}

MacContext NullMac::make_context(util::BytesView) const {
  MacContext ctx;
  ctx.size_ = static_cast<std::uint8_t>(size_);
  return ctx;
}

util::Bytes KeyedPrefixMac::compute(
    util::BytesView key,
    std::initializer_list<util::BytesView> chunks) const {
  auto ctx = hash_->clone();
  ctx->reset();
  ctx->update(key);
  for (auto c : chunks) ctx->update(c);
  return ctx->finish();
}

util::Bytes HmacMac::compute(
    util::BytesView key,
    std::initializer_list<util::BytesView> chunks) const {
  const std::size_t block = hash_->block_size();

  // Keys longer than a block are hashed first (RFC 2104).
  util::Bytes k(key.begin(), key.end());
  if (k.size() > block) {
    auto ctx = hash_->clone();
    ctx->reset();
    ctx->update(k);
    k = ctx->finish();
  }
  k.resize(block, 0);

  util::Bytes ipad(block), opad(block);
  for (std::size_t i = 0; i < block; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  auto inner = hash_->clone();
  inner->reset();
  inner->update(ipad);
  for (auto c : chunks) inner->update(c);
  const util::Bytes inner_digest = inner->finish();

  auto outer = hash_->clone();
  outer->reset();
  outer->update(opad);
  outer->update(inner_digest);
  return outer->finish();
}

util::Bytes hmac(Hash& hash, util::BytesView key, util::BytesView message) {
  HmacMac mac(hash.clone());
  return mac.compute(key, {message});
}

util::Bytes hmac_md5(util::BytesView key, util::BytesView message) {
  Md5 h;
  return hmac(h, key, message);
}

util::Bytes hmac_sha1(util::BytesView key, util::BytesView message) {
  Sha1 h;
  return hmac(h, key, message);
}

}  // namespace fbs::crypto
