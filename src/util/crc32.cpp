#include "util/crc32.hpp"

#include <array>

namespace fbs::util {

namespace {

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
/// kTables[k][b] is the CRC state contribution of byte b followed by k zero
/// bytes -- so eight input bytes fold into the state with eight independent
/// lookups instead of a chain of eight dependent ones.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
  return t;
}

constexpr auto kTables = make_tables();

}  // namespace

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state, BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    // The reflected CRC consumes bytes LSB first: the first four bytes
    // XOR into the state, the next four only shift in.
    const std::uint32_t lo = state ^ (static_cast<std::uint32_t>(p[0]) |
                                      static_cast<std::uint32_t>(p[1]) << 8 |
                                      static_cast<std::uint32_t>(p[2]) << 16 |
                                      static_cast<std::uint32_t>(p[3]) << 24);
    state = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
            kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
            kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
            kTables[0][p[7]];
  }
  for (; n > 0; --n, ++p)
    state = kTables[0][(state ^ *p) & 0xFF] ^ (state >> 8);
  return state;
}

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(BytesView data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace fbs::util
