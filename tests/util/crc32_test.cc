#include "util/crc32.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace surveyor {
namespace {

/// The byte-at-a-time table loop (reflected polynomial 0xEDB88320) that
/// the eight-byte slicing must reproduce exactly.
uint32_t BytewiseUpdate(uint32_t state, std::string_view data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t byte = 0; byte < 256; ++byte) {
      uint32_t r = byte;
      for (int bit = 0; bit < 8; ++bit) {
        r = (r >> 1) ^ ((r & 1u) ? 0xEDB88320u : 0u);
      }
      t[byte] = r;
    }
    return t;
  }();
  for (const char c : data) {
    state = (state >> 8) ^ table[(state ^ static_cast<uint8_t>(c)) & 0xFFu];
  }
  return state;
}

std::string RandomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.UniformInt(256));
  return out;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(std::string_view("\0", 1)), 0xD202EF8Du);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

// Every length 0..64 at every start offset 0..7 covers each split between
// the eight-byte loop and the byte tail, and every alignment of the start.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::string bytes = RandomBytes(7, 64 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const std::string_view data(bytes.data() + offset, length);
      EXPECT_EQ(Crc32Update(kCrc32Init, data),
                BytewiseUpdate(kCrc32Init, data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, ChunkedUpdatesEqualOneShot) {
  const std::string bytes = RandomBytes(11, 1000);
  const uint32_t whole = Crc32(bytes);
  EXPECT_EQ(whole, Crc32Finalize(BytewiseUpdate(kCrc32Init, bytes)));
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t state = kCrc32Init;
    size_t pos = 0;
    while (pos < bytes.size()) {
      const size_t chunk = std::min<size_t>(
          bytes.size() - pos, static_cast<size_t>(rng.UniformInt(20)));
      state = Crc32Update(state, std::string_view(bytes).substr(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(Crc32Finalize(state), whole) << "trial " << trial;
  }
}

}  // namespace
}  // namespace surveyor
