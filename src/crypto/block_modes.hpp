// DES modes of operation (FIPS PUB 81): ECB, CBC, CFB-64, OFB-64.
//
// Section 5.2 of the paper specifies how the per-datagram confounder drives
// the cipher: it is the IV in CBC/CFB/OFB modes, and in ECB mode it is
// XOR'ed with every plaintext block prior to encryption. The IP mapping
// (Section 7.2) duplicates the 32-bit confounder into a 64-bit quantity for
// DES; the caller does that expansion and passes the 64-bit IV here.
//
// The entry points are templated on the block cipher so the same mode code
// drives single DES and triple DES (any 64-bit-block cipher exposing
// kBlockSize and encrypt_block/decrypt_block over std::uint64_t works).
// Des and Des3 are explicitly instantiated in block_modes.cpp.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>

#include "crypto/des.hpp"
#include "util/bytes.hpp"

namespace fbs::crypto {

class Des3;

enum class CipherMode : std::uint8_t { kEcb, kCbc, kCfb, kOfb };

namespace detail {

/// Copy `data` into `out` and append PKCS#7 padding. One resize sizes the
/// buffer exactly; a reused `out` with enough capacity never reallocates.
inline void pkcs7_pad_into(util::BytesView data, util::Bytes& out) {
  constexpr std::size_t kBlock = Des::kBlockSize;
  const std::size_t pad = kBlock - data.size() % kBlock;  // 1..8
  out.resize(data.size() + pad);
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size());
  std::memset(out.data() + data.size(), static_cast<int>(pad), pad);
}

/// The final CBC input block of `data` padded to a whole number of blocks:
/// the bytes past its last whole block, then the PKCS#7 pad bytes.
inline void pkcs7_last_block(util::BytesView data,
                             std::uint8_t (&last)[Des::kBlockSize]) {
  constexpr std::size_t kBlock = Des::kBlockSize;
  const std::size_t whole = data.size() / kBlock * kBlock;
  const std::size_t rem = data.size() - whole;
  if (rem) std::memcpy(last, data.data() + whole, rem);
  std::memset(last + rem, static_cast<int>(kBlock - rem), kBlock - rem);
}

inline bool pkcs7_unpad_in_place(util::Bytes& data) {
  constexpr std::size_t kBlock = Des::kBlockSize;
  if (data.empty() || data.size() % kBlock != 0) return false;
  const std::uint8_t pad = data.back();
  if (pad == 0 || pad > kBlock || pad > data.size()) return false;
  for (std::size_t i = data.size() - pad; i < data.size(); ++i)
    if (data[i] != pad) return false;
  data.resize(data.size() - pad);
  return true;
}

}  // namespace detail

/// Encrypt into a caller-owned buffer, reusing its capacity: `out` is
/// resized to the ciphertext length and allocates only if it has never held
/// a datagram this large. `plaintext` must not alias `out`. ECB and CBC
/// apply PKCS#7 padding (output grows by 1..8 bytes); CFB and OFB are
/// stream modes and preserve length.
template <class Cipher>
void encrypt_into(const Cipher& cipher, CipherMode mode, std::uint64_t iv,
                  util::BytesView plaintext, util::Bytes& out);

/// Inverse of encrypt_into; returns false on malformed input (and leaves
/// `out` unspecified). `ciphertext` must not alias `out`.
template <class Cipher>
bool decrypt_into(const Cipher& cipher, CipherMode mode, std::uint64_t iv,
                  util::BytesView ciphertext, util::Bytes& out);

/// Encrypt `plaintext` under the given mode with `iv` (the confounder).
template <class Cipher>
util::Bytes encrypt(const Cipher& cipher, CipherMode mode, std::uint64_t iv,
                    util::BytesView plaintext) {
  util::Bytes out;
  encrypt_into(cipher, mode, iv, plaintext, out);
  return out;
}

/// Inverse of encrypt. Returns nullopt on malformed input (bad length for
/// block modes, bad PKCS#7 padding).
template <class Cipher>
std::optional<util::Bytes> decrypt(const Cipher& cipher, CipherMode mode,
                                   std::uint64_t iv,
                                   util::BytesView ciphertext) {
  util::Bytes out;
  if (!decrypt_into(cipher, mode, iv, ciphertext, out)) return std::nullopt;
  return out;
}

extern template void encrypt_into<Des>(const Des&, CipherMode, std::uint64_t,
                                       util::BytesView, util::Bytes&);
extern template bool decrypt_into<Des>(const Des&, CipherMode, std::uint64_t,
                                       util::BytesView, util::Bytes&);
extern template void encrypt_into<Des3>(const Des3&, CipherMode,
                                        std::uint64_t, util::BytesView,
                                        util::Bytes&);
extern template bool decrypt_into<Des3>(const Des3&, CipherMode,
                                        std::uint64_t, util::BytesView,
                                        util::Bytes&);

}  // namespace fbs::crypto
