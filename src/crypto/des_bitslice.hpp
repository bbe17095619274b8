// Bitsliced DES: kLanes independent blocks per pass (Biham's orthogonal
// representation). Each 64-block group's 64x64 bit matrix of
// [lane][block bit] is transposed so that position j holds bit j of all
// lanes; the permutations (IP, FP, E, P, PC-2 wiring) then cost nothing --
// they are index relabelings -- and each S-box evaluates as a boolean gate
// network over six lane-vector inputs, computing all lanes at once. The
// gate network's word is kWords x 64 bits wide (a GCC/Clang vector type in
// the implementation), so one evaluation covers kLanes = kWords * 64
// blocks: the same boolean circuit, issued as SIMD ops where the target
// has them and synthesized from scalar ops where it does not.
//
// The gate networks are NOT hand-copied from the literature: they are
// derived at compile time from the FIPS kSbox tables in des_tables.hpp by
// a template-recursive positive-Davio decomposition (see des_bitslice.cpp),
// so this implementation shares only the standard's constants (and the key
// schedule) with the scalar core and is differentially tested against the
// DesReference oracle.
//
// Key handling stores what every round key is selected from: the 56 PC1
// key bits C0|D0, one lane-mask plane per bit. A round's 48 key words are a
// fixed selection of those planes (PC2 after the round's cumulative C/D
// rotation, a constexpr table), so no per-round expansion is ever stored or
// computed. Loading mixed keys is one 64x64 transpose per 64-lane group
// that carries work; rekeying one lane is 56 masked bit updates; a
// broadcast key is 56 plane stores.
//
// CBC interaction: decryption is block-parallel even within one datagram
// (the chain input is ciphertext, all of it in hand), so a decrypt batch
// can split a single datagram across lanes. Encryption chains serially per
// datagram, so a seal batch assigns one datagram per lane. Both schedules
// live in crypto/batch.hpp.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace fbs::crypto {

namespace des_tables {
struct KeySchedule;
}

/// Compact per-key schedule: the PC1 output C0|D0 (C0 in bits 55..28, D0
/// in bits 27..0, MSB first) -- 8 bytes, cached per flow next to the scalar
/// Des object. Every round key is a rotation plus PC2 of these bits.
struct DesBitsliceKeySchedule {
  std::uint64_t cd0 = 0;

  /// From an 8-byte DES key (parity bits ignored, as in Des).
  static DesBitsliceKeySchedule from_key(util::BytesView key);
  /// From an already computed PC1/PC2 schedule: a copy, no key work.
  static DesBitsliceKeySchedule from_schedule(
      const des_tables::KeySchedule& ks);

  /// Round key K(round+1) as a 48-bit word (bit 47 = the standard's bit 1),
  /// recomputed from C0|D0. For tests and diagnostics; the engine selects
  /// key planes directly.
  std::uint64_t round_key(int round) const;

  bool operator==(const DesBitsliceKeySchedule&) const = default;
};

class DesBitslice {
 public:
  /// Lanes per 64x64 transpose tile (one machine word of one group).
  static constexpr std::size_t kGroupLanes = 64;
  /// 64-lane groups evaluated together per gate-network pass.
  static constexpr std::size_t kWords = 4;
  static constexpr std::size_t kLanes = kWords * kGroupLanes;

  /// Number of key-bit planes: the 56 PC1 bits C0|D0.
  static constexpr std::size_t kKeyPlanes = 56;

  /// All lanes share one key: 56 x kWords plane stores.
  void set_all_lanes(const DesBitsliceKeySchedule& ks);

  /// Mixed keys, bulk: lane i takes lanes[i]. A null entry marks a lane
  /// without work; a 64-lane group whose entries are all null is skipped
  /// and keeps whatever key it had. Each group that carries work costs a
  /// gather and one 64x64 transpose -- a few hundred ns, a small fraction
  /// of a cipher pass.
  void set_lanes(const std::array<const DesBitsliceKeySchedule*, kLanes>& l);

  /// Rekey a single lane in place (the batch scheduler's incremental
  /// update when a lane's cursor crosses a job boundary): 56 branch-free
  /// bit updates, other lanes untouched.
  void set_lane(std::size_t lane, const DesBitsliceKeySchedule& ks);

  /// Plane `p` (0 = C0 bit 1 ... 55 = D0 bit 28) of 64-lane group `w`:
  /// lane w*64+i's key bit at word bit 63-i. For tests.
  std::uint64_t key_plane(std::size_t p, std::size_t w) const {
    return planes_[p * kWords + w];
  }

  /// Encrypt/decrypt kLanes blocks in place, one per lane; blocks[i] is
  /// lane i's block as loaded by Des::load_be64. Only the first `groups`
  /// 64-lane groups carry work: the others skip their transposes and come
  /// back unspecified. Lanes with no real work inside a carried group may
  /// hold anything -- every lane is computed regardless.
  void encrypt(std::uint64_t blocks[kLanes], std::size_t groups = kWords) const {
    crypt(blocks, groups, /*decrypt=*/false);
  }
  void decrypt(std::uint64_t blocks[kLanes], std::size_t groups = kWords) const {
    crypt(blocks, groups, /*decrypt=*/true);
  }

  /// In-place 64x64 bit-matrix transpose, bit (63-c) of m[r] <-> bit
  /// (63-r) of m[c]. Exposed for tests and benches; crypt applies it per
  /// 64-lane group and set_lanes per group of keys.
  static void transpose64(std::uint64_t m[kGroupLanes]);

 private:
  void crypt(std::uint64_t blocks[kLanes], std::size_t groups,
             bool decrypt) const;

  /// planes_[p * kWords + w]: key plane p of group w (see key_plane).
  /// Stored as plain uint64_t so the header stays free of vector-extension
  /// types; the implementation reads each kWords run as one wide word.
  alignas(64) std::array<std::uint64_t, kKeyPlanes * kWords> planes_{};
};

}  // namespace fbs::crypto
