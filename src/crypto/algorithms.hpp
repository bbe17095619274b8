// Algorithm registry backing the security flow header's algorithm
// identification field ("For generality, the security flow header should
// also include an algorithm identification field", Section 5.2 -- the paper
// omits its description; this is our realization).
//
// A suite names the MAC construction and the optional cipher. The default
// suite matches the paper's implementation: keyed MD5 + DES-CBC (Sec 7.2).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "crypto/block_modes.hpp"
#include "crypto/mac.hpp"

namespace fbs::crypto {

enum class CipherAlgorithm : std::uint8_t {
  kNone = 0,  // authentication-only datagrams
  kDesCbc = 1,
  kDesEcb = 2,
  kDesCfb = 3,
  kDesOfb = 4,
  /// Triple DES, EDE with three independent keys, in CBC mode (ROADMAP
  /// item 3b). Scalar-only: the bitsliced batch engine handles single DES;
  /// kDes3Ede flows take the table-driven Des3 core.
  kDes3Ede = 5,
};

struct AlgorithmSuite {
  MacAlgorithm mac = MacAlgorithm::kKeyedMd5;
  CipherAlgorithm cipher = CipherAlgorithm::kDesCbc;

  bool operator==(const AlgorithmSuite&) const = default;
};

/// The 1997 implementation's suite: keyed MD5 MAC, DES-CBC encryption.
inline AlgorithmSuite default_suite() { return {}; }

/// Pack/unpack the one-byte wire encoding (high nibble MAC, low cipher).
std::uint8_t encode_suite(AlgorithmSuite suite);
std::optional<AlgorithmSuite> decode_suite(std::uint8_t wire);

/// The MAC for a suite, for callers that hold it by pointer. Never null
/// for a valid enum value. (A Mac is a one-byte value: Mac(alg) builds one
/// in place.)
std::unique_ptr<Mac> make_mac(MacAlgorithm alg);

/// Block-cipher mode for a cipher algorithm; nullopt for kNone.
std::optional<CipherMode> cipher_mode(CipherAlgorithm alg);

}  // namespace fbs::crypto
