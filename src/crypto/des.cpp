#include "crypto/des.hpp"

#include <bit>
#include <cassert>

#include "crypto/des_tables.hpp"

namespace fbs::crypto {

namespace {

/// Fused SP tables: kSp[i][v] is the P permutation applied to S-box i's
/// output for the 6-bit E-expanded-and-keyed input v, already positioned in
/// the 32-bit word. One lookup replaces a 6-bit S-box row/column decode plus
/// a 32-entry P permutation walk.
constexpr std::array<std::array<std::uint32_t, 64>, 8> build_sp_tables() {
  std::array<std::array<std::uint32_t, 64>, 8> sp{};
  for (int box = 0; box < 8; ++box) {
    for (int v = 0; v < 64; ++v) {
      // Row = outer two bits, column = inner four (FIPS b1..b6, MSB first).
      const int row = ((v & 0x20) >> 4) | (v & 1);
      const int col = (v >> 1) & 0xF;
      const std::uint32_t s = des_tables::kSbox[box][row * 16 + col];
      // Place the 4-bit output at FIPS bits 4*box+1 .. 4*box+4, then P.
      const std::uint64_t positioned = static_cast<std::uint64_t>(s)
                                       << (28 - 4 * box);
      sp[box][v] = static_cast<std::uint32_t>(
          des_tables::permute(positioned, des_tables::kPbox, 32));
    }
  }
  return sp;
}

constexpr auto kSp = build_sp_tables();

/// IP as a 5-stage bit-swap network on the big-endian-loaded halves
/// (l = FIPS bits 1-32, r = 33-64); verified bit-exact against the kIp
/// table walk. FP is the inverse: the same involutive stages in reverse.
inline void initial_permutation(std::uint32_t& l, std::uint32_t& r) {
  std::uint32_t t;
  t = ((l >> 4) ^ r) & 0x0F0F0F0Fu;  r ^= t;  l ^= t << 4;
  t = ((l >> 16) ^ r) & 0x0000FFFFu; r ^= t;  l ^= t << 16;
  t = ((r >> 2) ^ l) & 0x33333333u;  l ^= t;  r ^= t << 2;
  t = ((r >> 8) ^ l) & 0x00FF00FFu;  l ^= t;  r ^= t << 8;
  t = ((l >> 1) ^ r) & 0x55555555u;  r ^= t;  l ^= t << 1;
}

inline void final_permutation(std::uint32_t& l, std::uint32_t& r) {
  std::uint32_t t;
  t = ((l >> 1) ^ r) & 0x55555555u;  r ^= t;  l ^= t << 1;
  t = ((r >> 8) ^ l) & 0x00FF00FFu;  l ^= t;  r ^= t << 8;
  t = ((r >> 2) ^ l) & 0x33333333u;  l ^= t;  r ^= t << 2;
  t = ((l >> 16) ^ r) & 0x0000FFFFu; r ^= t;  l ^= t << 16;
  t = ((l >> 4) ^ r) & 0x0F0F0F0Fu;  r ^= t;  l ^= t << 4;
}

/// IP and FP on a whole block, high half first. FP(IP(x)) == x.
inline std::uint64_t ip64(std::uint64_t block) {
  std::uint32_t l = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(block);
  initial_permutation(l, r);
  return static_cast<std::uint64_t>(l) << 32 | r;
}

inline std::uint64_t fp64(std::uint64_t block) {
  std::uint32_t l = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(block);
  final_permutation(l, r);
  return static_cast<std::uint64_t>(l) << 32 | r;
}

/// An identity the optimizer cannot see through. GCC's reassociation pass
/// rewrites any OR expression, however parenthesized, into one linear
/// chain; passing the partial results through here pins the tree shape.
inline std::uint32_t opaque(std::uint32_t v) {
#if defined(__GNUC__)
  asm("" : "+r"(v));
#endif
  return v;
}

/// The cipher function f(R, K). Group i of the E expansion E(R) is bits
/// [4i..4i+5] (MSB first) of the cyclic sequence R32 R1 R2 ... R31, which
/// is rotr(R, 1). The even groups sit in disjoint fields of that word; the
/// odd groups, group 8's wrap-around included, sit in disjoint fields of
/// rotl(R, 1). So two XORs key all eight S-box inputs, and each index is
/// one shift and mask. The eight lookups are ORed as a balanced tree:
/// three levels deep on the round's critical path instead of the seven of
/// a left-to-right chain.
inline std::uint32_t feistel(std::uint32_t r, std::uint32_t ka,
                             std::uint32_t kb) {
  const std::uint32_t x = std::rotr(r, 1) ^ ka;
  const std::uint32_t y = std::rotl(r, 1) ^ kb;
  const std::uint32_t s01 =
      opaque(kSp[0][x >> 26] | kSp[1][(y >> 24) & 0x3F]);
  const std::uint32_t s23 =
      opaque(kSp[2][(x >> 18) & 0x3F] | kSp[3][(y >> 16) & 0x3F]);
  const std::uint32_t s45 =
      opaque(kSp[4][(x >> 10) & 0x3F] | kSp[5][(y >> 8) & 0x3F]);
  const std::uint32_t s67 =
      opaque(kSp[6][(x >> 2) & 0x3F] | kSp[7][y & 0x3F]);
  return opaque(s01 | s23) | opaque(s45 | s67);
}

}  // namespace

Des::Des(util::BytesView key) {
  assert(key.size() == kKeySize);
  const des_tables::KeySchedule ks =
      des_tables::key_schedule(load_be64(key.data()));
  for (int round = 0; round < 16; ++round) {
    std::uint32_t chunk[8];
    for (int i = 0; i < 8; ++i)
      chunk[i] = static_cast<std::uint32_t>(
          (ks.subkeys[round] >> (42 - 6 * i)) & 0x3F);
    // Field offsets match the shifts in feistel().
    ka_[round] = chunk[0] << 26 | chunk[2] << 18 | chunk[4] << 10 |
                 chunk[6] << 2;
    kb_[round] = chunk[1] << 24 | chunk[3] << 16 | chunk[5] << 8 | chunk[7];
  }
}

std::uint64_t Des::encrypt_rounds(std::uint64_t lr) const {
  std::uint32_t l = static_cast<std::uint32_t>(lr >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(lr);
  for (int round = 0; round < 16; round += 2) {
    l ^= feistel(r, ka_[round], kb_[round]);
    r ^= feistel(l, ka_[round + 1], kb_[round + 1]);
  }
  // The unrolled pairs absorb the per-round swap; preoutput is R16 L16.
  return static_cast<std::uint64_t>(r) << 32 | l;
}

std::uint64_t Des::crypt(std::uint64_t block, bool decrypt) const {
  if (!decrypt) return fp64(encrypt_rounds(ip64(block)));
  std::uint32_t l = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(block);
  initial_permutation(l, r);
  for (int round = 15; round >= 0; round -= 2) {
    l ^= feistel(r, ka_[round], kb_[round]);
    r ^= feistel(l, ka_[round - 1], kb_[round - 1]);
  }
  final_permutation(r, l);
  return static_cast<std::uint64_t>(r) << 32 | l;
}

void Des::encrypt_cbc(std::uint64_t& chain, const std::uint8_t* in,
                      std::uint8_t* out, std::size_t nblocks) const {
  // `state` is IP(C[i-1]), the previous block's preoutput. Only the rounds
  // and one XOR sit on the serial chain; IP of the next plaintext and FP of
  // this output are independent work the core overlaps with it.
  std::uint64_t state = ip64(chain);
  for (std::size_t i = 0; i < nblocks; ++i) {
    state = encrypt_rounds(ip64(load_be64(in)) ^ state);
    store_be64(fp64(state), out);
    in += kBlockSize;
    out += kBlockSize;
  }
  chain = fp64(state);
}

std::uint64_t Des::crypt_trace(std::uint64_t block, bool decrypt,
                               RoundTrace& trace) const {
  std::uint32_t l = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(block);
  initial_permutation(l, r);
  trace.l[0] = l;
  trace.r[0] = r;
  for (int round = 0; round < 16; ++round) {
    const int k = decrypt ? 15 - round : round;
    const std::uint32_t next = l ^ feistel(r, ka_[k], kb_[k]);
    l = r;
    r = next;
    trace.l[round + 1] = l;
    trace.r[round + 1] = r;
  }
  std::uint32_t outl = r, outr = l;  // preoutput swap
  final_permutation(outl, outr);
  return static_cast<std::uint64_t>(outl) << 32 | outr;
}

std::uint64_t Des::encrypt_block(std::uint64_t block) const {
  return crypt(block, false);
}

std::uint64_t Des::decrypt_block(std::uint64_t block) const {
  return crypt(block, true);
}

void Des::encrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  store_be64(encrypt_block(load_be64(in)), out);
}

void Des::decrypt_block(const std::uint8_t* in, std::uint8_t* out) const {
  store_be64(decrypt_block(load_be64(in)), out);
}

}  // namespace fbs::crypto
