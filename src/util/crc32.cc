#include "util/crc32.h"

#include <array>

namespace surveyor {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables for polynomial 0xEDB88320 (constexpr, so built at
/// compile time). tables[0] is the classic byte-indexed remainder table;
/// tables[k][b] is the remainder of byte b followed by k zero bytes, so
/// eight table reads fold eight input bytes at once.
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t remainder = byte;
    for (int bit = 0; bit < 8; ++bit) {
      remainder = (remainder >> 1) ^ ((remainder & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][byte] = remainder;
  }
  for (uint32_t byte = 0; byte < 256; ++byte) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][byte];
      tables[k][byte] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

/// Little-endian load; compilers fold it into one unaligned load.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t state, std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ state;
    const uint32_t hi = LoadLe32(p + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = (state >> 8) ^ kTables[0][(state ^ *p) & 0xFFu];
  }
  return state;
}

}  // namespace surveyor
