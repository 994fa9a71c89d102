// Runtime CPU feature detection for the SIMD sampling kernels.
//
// The batch kernels (src/sampling/batch_kernels.h) ship two bit-identical
// implementations per kernel: a portable scalar path and an AVX2 path built
// with per-function target attributes (the library itself is compiled for
// the baseline ISA, so the AVX2 code is only *executed* after runtime
// detection says the CPU has it). Dispatch resolves per call from
// ActiveSimdLevel(), which folds together:
//
//   1. hardware detection (cpuid, via __builtin_cpu_supports),
//   2. the BINGO_DISABLE_AVX2 environment variable (any value other than
//      "0"/"" forces the scalar path — CI runs the whole suite this way so
//      the portable path can never rot), and
//   3. a process-local test override (ScopedForceScalar) so a single test
//      binary can exercise both paths and assert they agree bit for bit.
//
// Because both paths are bit-identical by construction, dispatch is a pure
// performance decision: walk outputs never depend on the host CPU.
// util::Crc32c (src/util/checksum.h) dispatches its SSE4.2 path on the
// same level, so on-disk bytes never depend on it either.

#ifndef BINGO_SRC_UTIL_CPU_FEATURES_H_
#define BINGO_SRC_UTIL_CPU_FEATURES_H_

namespace bingo::util {

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

const char* ToString(SimdLevel level);

// Raw hardware capability (cpuid), independent of overrides. Cached after
// the first call.
bool CpuSupportsAvx2();

// The level dispatch actually uses right now: hardware capability gated by
// BINGO_DISABLE_AVX2 (read once) and by any live ScopedForceScalar.
SimdLevel ActiveSimdLevel();

// RAII test hook: forces ActiveSimdLevel() to kScalar for its lifetime.
// Nestable; not thread-safe against concurrent construction (tests force
// from one thread).
class ScopedForceScalar {
 public:
  ScopedForceScalar();
  ~ScopedForceScalar();
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;
};

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_CPU_FEATURES_H_
