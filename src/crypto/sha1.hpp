// SHA-1 (the FIPS 180 "Secure Hash Standard" the paper cites as SHS),
// offered as an alternative H / HMAC hash to MD5.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace fbs::crypto {

/// Streaming context, a plain value: copying one copies the running
/// state, which is how MAC contexts keep their precomputed key states.
class Sha1 {
 public:
  static constexpr std::size_t kDigestSize = 20;
  static constexpr std::size_t kBlockSize = 64;

  Sha1() { reset(); }

  void reset();
  void update(util::BytesView data);
  /// Finish into a caller-provided buffer of kDigestSize bytes without
  /// allocating; the context must be reset() before reuse.
  void finish_into(std::uint8_t* out);
  /// Finish and return the digest (allocating convenience wrapper).
  util::Bytes finish() {
    util::Bytes digest(kDigestSize);
    finish_into(digest.data());
    return digest;
  }

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t total_len_ = 0;
};

/// One-shot SHA-1.
util::Bytes sha1(util::BytesView data);

}  // namespace fbs::crypto
