// Message authentication codes.
//
// The paper's header MAC (Section 5.2) is the keyed-prefix construction
//     HMAC(Kf | confounder | timestamp | payload)
// with "HMAC" meaning "some one-way cryptographic hash function" -- i.e.
// keyed MD5 in the 1997 implementation (Section 7.2). The header's
// algorithm field picks the hash (MD5 or SHA-1) and the construction: that
// keyed prefix, the modern RFC 2104 HMAC, or the null MAC of the NOP
// measurement configuration. Mac names one such choice; make_context binds
// it to a flow key, and every tag is computed through the MacContext.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <variant>

#include "crypto/md5.hpp"
#include "crypto/sha1.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

enum class MacAlgorithm : std::uint8_t {
  kKeyedMd5 = 1,   // H(K | ...) with MD5: the paper's MAC
  kHmacMd5 = 2,    // RFC 2104
  kKeyedSha1 = 3,  // H(K | ...) with SHS
  kHmacSha1 = 4,
  /// "Nullified" MAC for the FBS NOP configuration of Figure 8: returns a
  /// constant 128-bit tag immediately, so protocol overhead can be measured
  /// with cryptography out of the picture. NOT a security mode.
  kNull = 5,
};

inline constexpr MacAlgorithm kMacAlgorithms[] = {
    MacAlgorithm::kKeyedMd5, MacAlgorithm::kHmacMd5, MacAlgorithm::kKeyedSha1,
    MacAlgorithm::kHmacSha1, MacAlgorithm::kNull};

/// Tag length of `alg` in bytes; 0 for a value that names no algorithm.
constexpr std::size_t mac_size(MacAlgorithm alg) {
  switch (alg) {
    case MacAlgorithm::kKeyedMd5:
    case MacAlgorithm::kHmacMd5:
      return Md5::kDigestSize;
    case MacAlgorithm::kKeyedSha1:
    case MacAlgorithm::kHmacSha1:
      return Sha1::kDigestSize;
    case MacAlgorithm::kNull:
      return 16;  // keeps the header layout identical to the MD5 suites
  }
  return 0;
}

/// Room for any tag a MacAlgorithm produces: SHA-1's 20 bytes.
inline constexpr std::size_t kMaxMacSize = Sha1::kDigestSize;
static_assert(std::ranges::all_of(kMacAlgorithms, [](MacAlgorithm a) {
  return mac_size(a) <= kMaxMacSize;
}));

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
  friend class Mac;
  friend class MacRun;
  /// A state of the concrete hash; monostate for the null MAC.
  using State = std::variant<std::monostate, Md5, Sha1>;

  MacContext() = default;  // built only by Mac::make_context

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

/// The MAC a suite names: one byte, freely copied. The keyed-prefix
/// constructions compute H(key | chunk_0 | chunk_1 | ...), the paper's
/// MAC; it is open to length extension in general, acceptable here because
/// the protocol never exposes intermediate hashes and the message layout
/// is fixed. The HMAC constructions are RFC 2104.
class Mac final {
 public:
  explicit Mac(MacAlgorithm alg) : alg_(alg) {}

  MacAlgorithm algorithm() const { return alg_; }
  std::size_t mac_size() const { return crypto::mac_size(alg_); }
  /// Bind this MAC to `key`, doing all per-key precomputation up front.
  /// Throws std::invalid_argument if the algorithm value names no MAC.
  MacContext make_context(util::BytesView key) const;

 private:
  MacAlgorithm alg_;
};

}  // namespace fbs::crypto
