#include "crypto/md5.hpp"

#include <bit>
#include <cstring>

namespace fbs::crypto {

namespace {

std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap32(v);
  return v;
}

// The auxiliary functions F, H and I of RFC 1321 section 3.4. F(x,y,z) =
// xy v not(x)z is written with the same truth table but one operation fewer
// after `x` (the newest state word) arrives. G is folded into step_g.
inline std::uint32_t f(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return z ^ (x & (y ^ z));
}
inline std::uint32_t h(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return x ^ y ^ z;
}
inline std::uint32_t i(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return y ^ (x | ~z);
}

// One step a = b + ((a + F(b,c,d) + X[k] + T[i]) <<< s). The message word
// and sine constant are added first: they do not wait on the previous step.
template <std::uint32_t (*F)(std::uint32_t, std::uint32_t, std::uint32_t)>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t x, std::uint32_t t, int s) {
  a = b + std::rotl(a + (x + t) + F(b, c, d), s);
}

// G splits into two terms whose sum equals the OR (they are never both 1),
// so y and not(z) combine with `a` before x = b is ready.
inline void step_g(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t t, int s) {
  a = b + std::rotl(a + (x + t) + (c & ~d) + (b & d), s);
}

}  // namespace

void Md5::reset() {
  state_ = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
  total_len_ = 0;
}

// The RFC 1321 section 3.4 step list written out in full: every message
// index, shift and sine constant T[i] is an immediate, and no step branches
// on its round.
void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int k = 0; k < 16; ++k) m[k] = load_le32(block + 4 * k);

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1.
  step<f>(a, b, c, d, m[0], 0xd76aa478, 7);
  step<f>(d, a, b, c, m[1], 0xe8c7b756, 12);
  step<f>(c, d, a, b, m[2], 0x242070db, 17);
  step<f>(b, c, d, a, m[3], 0xc1bdceee, 22);
  step<f>(a, b, c, d, m[4], 0xf57c0faf, 7);
  step<f>(d, a, b, c, m[5], 0x4787c62a, 12);
  step<f>(c, d, a, b, m[6], 0xa8304613, 17);
  step<f>(b, c, d, a, m[7], 0xfd469501, 22);
  step<f>(a, b, c, d, m[8], 0x698098d8, 7);
  step<f>(d, a, b, c, m[9], 0x8b44f7af, 12);
  step<f>(c, d, a, b, m[10], 0xffff5bb1, 17);
  step<f>(b, c, d, a, m[11], 0x895cd7be, 22);
  step<f>(a, b, c, d, m[12], 0x6b901122, 7);
  step<f>(d, a, b, c, m[13], 0xfd987193, 12);
  step<f>(c, d, a, b, m[14], 0xa679438e, 17);
  step<f>(b, c, d, a, m[15], 0x49b40821, 22);

  // Round 2.
  step_g(a, b, c, d, m[1], 0xf61e2562, 5);
  step_g(d, a, b, c, m[6], 0xc040b340, 9);
  step_g(c, d, a, b, m[11], 0x265e5a51, 14);
  step_g(b, c, d, a, m[0], 0xe9b6c7aa, 20);
  step_g(a, b, c, d, m[5], 0xd62f105d, 5);
  step_g(d, a, b, c, m[10], 0x02441453, 9);
  step_g(c, d, a, b, m[15], 0xd8a1e681, 14);
  step_g(b, c, d, a, m[4], 0xe7d3fbc8, 20);
  step_g(a, b, c, d, m[9], 0x21e1cde6, 5);
  step_g(d, a, b, c, m[14], 0xc33707d6, 9);
  step_g(c, d, a, b, m[3], 0xf4d50d87, 14);
  step_g(b, c, d, a, m[8], 0x455a14ed, 20);
  step_g(a, b, c, d, m[13], 0xa9e3e905, 5);
  step_g(d, a, b, c, m[2], 0xfcefa3f8, 9);
  step_g(c, d, a, b, m[7], 0x676f02d9, 14);
  step_g(b, c, d, a, m[12], 0x8d2a4c8a, 20);

  // Round 3.
  step<h>(a, b, c, d, m[5], 0xfffa3942, 4);
  step<h>(d, a, b, c, m[8], 0x8771f681, 11);
  step<h>(c, d, a, b, m[11], 0x6d9d6122, 16);
  step<h>(b, c, d, a, m[14], 0xfde5380c, 23);
  step<h>(a, b, c, d, m[1], 0xa4beea44, 4);
  step<h>(d, a, b, c, m[4], 0x4bdecfa9, 11);
  step<h>(c, d, a, b, m[7], 0xf6bb4b60, 16);
  step<h>(b, c, d, a, m[10], 0xbebfbc70, 23);
  step<h>(a, b, c, d, m[13], 0x289b7ec6, 4);
  step<h>(d, a, b, c, m[0], 0xeaa127fa, 11);
  step<h>(c, d, a, b, m[3], 0xd4ef3085, 16);
  step<h>(b, c, d, a, m[6], 0x04881d05, 23);
  step<h>(a, b, c, d, m[9], 0xd9d4d039, 4);
  step<h>(d, a, b, c, m[12], 0xe6db99e5, 11);
  step<h>(c, d, a, b, m[15], 0x1fa27cf8, 16);
  step<h>(b, c, d, a, m[2], 0xc4ac5665, 23);

  // Round 4.
  step<i>(a, b, c, d, m[0], 0xf4292244, 6);
  step<i>(d, a, b, c, m[7], 0x432aff97, 10);
  step<i>(c, d, a, b, m[14], 0xab9423a7, 15);
  step<i>(b, c, d, a, m[5], 0xfc93a039, 21);
  step<i>(a, b, c, d, m[12], 0x655b59c3, 6);
  step<i>(d, a, b, c, m[3], 0x8f0ccc92, 10);
  step<i>(c, d, a, b, m[10], 0xffeff47d, 15);
  step<i>(b, c, d, a, m[1], 0x85845dd1, 21);
  step<i>(a, b, c, d, m[8], 0x6fa87e4f, 6);
  step<i>(d, a, b, c, m[15], 0xfe2ce6e0, 10);
  step<i>(c, d, a, b, m[6], 0xa3014314, 15);
  step<i>(b, c, d, a, m[13], 0x4e0811a1, 21);
  step<i>(a, b, c, d, m[4], 0xf7537e82, 6);
  step<i>(d, a, b, c, m[11], 0xbd3af235, 10);
  step<i>(c, d, a, b, m[2], 0x2ad7d2bb, 15);
  step<i>(b, c, d, a, m[9], 0xeb86d391, 21);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(util::BytesView data) {
  std::size_t fill = total_len_ % kBlockSize;
  total_len_ += data.size();
  std::size_t off = 0;
  if (fill) {
    const std::size_t take = std::min(kBlockSize - fill, data.size());
    std::memcpy(buffer_.data() + fill, data.data(), take);
    off = take;
    fill += take;
    if (fill < kBlockSize) return;
    process_block(buffer_.data());
  }
  while (off + kBlockSize <= data.size()) {
    process_block(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size())
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
}

void Md5::finish_into(std::uint8_t* out) {
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad: 0x80 then zeros to 56 mod 64, then the 64-bit little-endian length.
  static constexpr std::uint8_t kPad[kBlockSize] = {0x80};
  const std::size_t fill = total_len_ % kBlockSize;
  const std::size_t pad_len = (fill < 56) ? 56 - fill : 120 - fill;
  update({kPad, pad_len});
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  update({len_bytes, 8});

  for (int i = 0; i < 4; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i]);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i] >> 24);
  }
}

util::Bytes md5(util::BytesView data) {
  Md5 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace fbs::crypto
