#include "src/util/checksum.h"

#include <array>
#include <cstring>

#include "src/util/cpu_features.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace bingo::util {

namespace {

constexpr std::array<uint32_t, 256> kCrc32cTable = [] {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}();

uint32_t Crc32cTable(const unsigned char* bytes, std::size_t len,
                     uint32_t crc) {
  for (std::size_t i = 0; i < len; ++i) {
    crc = kCrc32cTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
// The crc32 instruction folds the same reflected Castagnoli polynomial as
// the table, 8 bytes per step; the sub-word tail goes a byte at a time.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    const unsigned char* bytes, std::size_t len, uint32_t crc) {
  uint64_t crc64 = crc;
  for (; len >= 8; bytes += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; len > 0; ++bytes, --len) {
    crc = _mm_crc32_u8(crc, *bytes);
  }
  return crc;
}
#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32c(const void* data, std::size_t len, uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (ActiveSimdLevel() == SimdLevel::kAvx2) {
    return ~Crc32cSse42(bytes, len, ~seed);
  }
#endif
  return ~Crc32cTable(bytes, len, ~seed);
}

}  // namespace bingo::util
