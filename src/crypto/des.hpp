// DES block cipher (FIPS PUB 46). The paper's IP mapping encrypts datagram
// bodies with DES and uses the 32-bit confounder (duplicated to 64 bits) as
// the IV (Section 7.2). Modes of operation (FIPS 81) live in block_modes.hpp.
//
// This is the classic table-driven implementation: the eight S-boxes are
// fused with the P permutation into 64-entry tables of 32-bit words
// (generated at compile time from the FIPS tables in des_tables.hpp), the E
// expansion is one XOR of each of two rotated copies of the right half with
// a 32-bit round-key word, and IP/FP are O(log n) bit-swap networks instead
// of 64-entry permutation walks. The PC1/PC2 key schedule is table-driven
// too (des_tables.hpp) and computed once per key: a flow builds both this
// core and its bitsliced schedule from one des_tables::KeySchedule. The
// bit-at-a-time transcription of the standard survives only as the test
// oracle DesReference (tests/support/des_reference.hpp), and the two are
// tested bit-exact round by round.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace fbs::crypto {

namespace des_tables {
struct KeySchedule;
}

class Des {
 public:
  static constexpr std::size_t kBlockSize = 8;
  static constexpr std::size_t kKeySize = 8;  // 64 bits incl. parity

  /// Key is 8 bytes; the 8 parity bits are ignored, per the standard.
  explicit Des(util::BytesView key);
  /// From an already computed key schedule (what a flow shares with its
  /// bitsliced schedule, so the PC1/PC2 work runs once per key).
  explicit Des(const des_tables::KeySchedule& ks);

  /// Encrypt/decrypt exactly one 8-byte block, in-place variants included.
  std::uint64_t encrypt_block(std::uint64_t block) const;
  std::uint64_t decrypt_block(std::uint64_t block) const;
  void encrypt_block(const std::uint8_t* in, std::uint8_t* out) const;
  void decrypt_block(const std::uint8_t* in, std::uint8_t* out) const;

  /// CBC-encrypt `nblocks` whole 8-byte blocks from `in` to `out` (which may
  /// be the same buffer). `chain` is the IV on entry and the last ciphertext
  /// block on return, so consecutive calls continue one CBC stream. Since
  /// IP(P ^ C) = IP(P) ^ IP(C) and IP(C) is the previous block's pre-FP
  /// state, the chain carries that state and each block's IP and FP run off
  /// the serial dependency: bit-identical to chaining encrypt_block.
  void encrypt_cbc(std::uint64_t& chain, const std::uint8_t* in,
                   std::uint8_t* out, std::size_t nblocks) const;
  /// The CBC-decrypt counterpart, with the same contract: `chain` is the
  /// IV on entry and the last ciphertext block on return, and `out` may be
  /// `in`. No block waits on another's rounds, so the core overlaps them.
  void decrypt_cbc(std::uint64_t& chain, const std::uint8_t* in,
                   std::uint8_t* out, std::size_t nblocks) const;

  /// Per-round intermediate values (FIPS 46 notation): l[0]/r[0] are L0/R0
  /// (after IP), l[i]/r[i] are Li/Ri after round i. For tests comparing
  /// this implementation against the DesReference oracle round by round.
  struct RoundTrace {
    std::array<std::uint32_t, 17> l{};
    std::array<std::uint32_t, 17> r{};
  };
  std::uint64_t crypt_trace(std::uint64_t block, bool decrypt,
                            RoundTrace& trace) const;

  /// Big-endian block I/O, inline so the mode loops in other translation
  /// units compile each to one load or store plus a byte swap.
  static std::uint64_t load_be64(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::little)
      v = __builtin_bswap64(v);
    return v;
  }
  static void store_be64(std::uint64_t v, std::uint8_t* p) {
    if constexpr (std::endian::native == std::endian::little)
      v = __builtin_bswap64(v);
    std::memcpy(p, &v, sizeof v);
  }

 private:
  std::uint64_t crypt(std::uint64_t block, bool decrypt) const;
  /// The 16 rounds on an IP-domain block (L0 high, R0 low); returns the
  /// preoutput R16 L16, still in the IP domain.
  std::uint64_t encrypt_rounds(std::uint64_t lr) const;

  /// Each 48-bit round key as two 32-bit words lined up with the E
  /// expansion: ka holds the 6-bit chunks of S-boxes 1, 3, 5, 7 at the
  /// positions they occupy in rotr(R, 1), kb those of S-boxes 2, 4, 6, 8 in
  /// rotl(R, 1). One XOR per word keys all four inputs at once.
  std::array<std::uint32_t, 16> ka_{};
  std::array<std::uint32_t, 16> kb_{};
};

}  // namespace fbs::crypto
