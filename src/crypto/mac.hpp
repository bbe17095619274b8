// Message authentication codes.
//
// The paper's header MAC (Section 5.2) is the keyed-prefix construction
//     HMAC(Kf | confounder | timestamp | payload)
// with "HMAC" meaning "some one-way cryptographic hash function" -- i.e.
// keyed MD5 in the 1997 implementation (Section 7.2). We provide that
// construction (KeyedPrefixMac) plus the modern RFC 2104 HMAC as an
// alternative algorithm selectable through the header's algorithm field.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <variant>

#include "crypto/hash.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha1.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

/// A MAC bound to one key, held by value: construction (Mac::make_context)
/// does the per-key work once -- absorbing the key; for HMAC, hashing an
/// overlong key and absorbing both pads -- and keeps only fixed-size hash
/// states, so a per-flow context owns no heap block. It is immutable
/// afterwards: each message runs in a MacRun, whose working hash state is
/// the caller's stack scratch, so one context serves any number of
/// messages and concurrent readers. Cached per flow beside the Des key
/// schedule.
class MacContext {
 public:
  std::size_t mac_size() const { return size_; }
  /// Tag over the concatenation of `chunks` into `out` (mac_size() bytes).
  void compute_into(std::initializer_list<util::BytesView> chunks,
                    std::uint8_t* out) const;

 private:
  friend class KeyedPrefixMac;
  friend class HmacMac;
  friend class NullMac;
  friend class MacRun;
  /// A state of the concrete hash; monostate for the null MAC.
  using State = std::variant<std::monostate, Md5, Sha1>;

  MacContext() = default;  // built only by the Mac implementations

  State inner_;  // keyed prefix: key absorbed; HMAC: K ^ ipad absorbed
  State outer_;  // HMAC only: K ^ opad absorbed
  std::uint8_t size_ = 0;
  bool hmac_ = false;
};

/// One message's MAC computation, started from a context's precomputed key
/// state: begin at construction, then update()... and one finish_into().
/// Meant as a stack object, so the per-message scratch is never shared.
class MacRun {
 public:
  explicit MacRun(const MacContext& mac) : mac_(mac), work_(mac.inner_) {}

  void update(util::BytesView chunk);
  /// Write mac_size() bytes to `out`. The run is spent afterwards.
  void finish_into(std::uint8_t* out);

 private:
  const MacContext& mac_;
  MacContext::State work_;
};

/// Common interface: a MAC over (key, message chunks).
class Mac {
 public:
  virtual ~Mac() = default;
  virtual std::size_t mac_size() const = 0;
  /// Compute the tag over the concatenation of `chunks`.
  virtual util::Bytes compute(
      util::BytesView key,
      std::initializer_list<util::BytesView> chunks) const = 0;
  /// Bind this MAC to `key`, doing all per-key precomputation up front.
  virtual MacContext make_context(util::BytesView key) const = 0;
};

/// The paper's construction: tag = H(key | chunk_0 | chunk_1 | ...).
/// Vulnerable to length extension in general; acceptable here because the
/// protocol never exposes intermediate hashes and the message layout is
/// fixed -- but see HmacMac for the robust choice.
class KeyedPrefixMac final : public Mac {
 public:
  explicit KeyedPrefixMac(std::unique_ptr<Hash> hash)
      : hash_(std::move(hash)) {}

  std::size_t mac_size() const override { return hash_->digest_size(); }
  util::Bytes compute(
      util::BytesView key,
      std::initializer_list<util::BytesView> chunks) const override;
  MacContext make_context(util::BytesView key) const override;

 private:
  std::unique_ptr<Hash> hash_;
};

/// RFC 2104 HMAC over any Hash.
class HmacMac final : public Mac {
 public:
  explicit HmacMac(std::unique_ptr<Hash> hash) : hash_(std::move(hash)) {}

  std::size_t mac_size() const override { return hash_->digest_size(); }
  util::Bytes compute(
      util::BytesView key,
      std::initializer_list<util::BytesView> chunks) const override;
  MacContext make_context(util::BytesView key) const override;

 private:
  std::unique_ptr<Hash> hash_;
};

/// The "nullified" MAC of the paper's FBS NOP measurement configuration
/// (Section 7.3): returns immediately with a constant tag. Exists so the
/// Figure 8 bench can separate protocol overhead from cryptography cost.
class NullMac final : public Mac {
 public:
  explicit NullMac(std::size_t size = 16) : size_(size) {}
  std::size_t mac_size() const override { return size_; }
  util::Bytes compute(util::BytesView,
                      std::initializer_list<util::BytesView>) const override {
    return util::Bytes(size_, 0);
  }
  MacContext make_context(util::BytesView key) const override;

 private:
  std::size_t size_;
};

/// Convenience one-shots.
util::Bytes hmac(Hash& hash, util::BytesView key, util::BytesView message);
util::Bytes hmac_md5(util::BytesView key, util::BytesView message);
util::Bytes hmac_sha1(util::BytesView key, util::BytesView message);

}  // namespace fbs::crypto
