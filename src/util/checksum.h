// CRC-32C (Castagnoli) for on-disk integrity checks: snapshot sections and
// WAL record frames checksum their payloads so a torn write or bit rot is
// detected at load time instead of materializing as a corrupt store.
//
// Two bit-identical implementations, selected per call: the SSE4.2 `crc32`
// instruction, and a portable byte-at-a-time table walk. The hardware path
// runs whenever util::ActiveSimdLevel() reports AVX2 (every AVX2 CPU has
// SSE4.2), so BINGO_DISABLE_AVX2 and ScopedForceScalar exercise the table
// path. Both compute the same standard CRC, so every on-disk format is
// byte-identical whichever path wrote or reads it.

#ifndef BINGO_SRC_UTIL_CHECKSUM_H_
#define BINGO_SRC_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace bingo::util {

// Standard reflected CRC-32C. Chunked use: pass the previous return value
// as `seed` (the default 0 starts a fresh checksum).
uint32_t Crc32c(const void* data, std::size_t len, uint32_t seed = 0);

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_CHECKSUM_H_
