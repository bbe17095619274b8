// MD5 message digest (RFC 1321), implemented from the specification.
// This is the paper's default H and HMAC hash: flow keys are
// Kf = MD5(sfl | K_SD | S | D) and the header MAC is keyed MD5 (Sec 7.2).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace fbs::crypto {

/// Streaming context, a plain value: copying one copies the running
/// state, which is how MAC contexts keep their precomputed key states.
class Md5 {
 public:
  static constexpr std::size_t kDigestSize = 16;
  static constexpr std::size_t kBlockSize = 64;

  Md5() { reset(); }

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

  std::array<std::uint32_t, 4> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t total_len_ = 0;  // bytes fed so far
};

/// One-shot MD5.
util::Bytes md5(util::BytesView data);

}  // namespace fbs::crypto
