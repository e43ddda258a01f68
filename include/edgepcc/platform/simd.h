/**
 * @file
 * Runtime SIMD dispatch shim for the hot kernels.
 *
 * Every vectorized kernel in the codebase (Morton encode/decode,
 * radix digit extraction, segment min/max scans, CRC32C, XOR-FEC)
 * is compiled in up to three variants — scalar, SSE4.2, AVX2 — and
 * selects one at runtime through this shim. The contract
 * (docs/PERFORMANCE.md "Dispatch shim"):
 *
 *  - The scalar fallback is ALWAYS built and is the reference
 *    implementation; SIMD variants must be byte-identical to it.
 *  - The active level is chosen once, on first use: the highest ISA
 *    the CPU supports, clamped down by the `EDGEPCC_SIMD`
 *    environment variable (`scalar`, `sse4` or `avx2`) when set.
 *    `EDGEPCC_SIMD` can only lower the level — asking for an ISA the
 *    host lacks silently clamps to what the host can run, so the
 *    same invocation works on any machine.
 *  - Kernels read `activeSimdLevel()` per call (a relaxed atomic
 *    load); they never re-detect.
 *  - Tests that need to force a level mid-process (the env variable
 *    is read only once) use `setSimdLevelForTesting()`.
 *
 * Adding an ISA = one enum value, one detection line, one name, and
 * a new `case` in each dispatching kernel; see docs/PERFORMANCE.md.
 *
 * The implementation lives in src/common/simd_dispatch.cpp (not
 * src/platform/) so that edgepcc::common kernels — CRC32C guards
 * every transport chunk — can dispatch without a library cycle:
 * platform already links against common.
 */

#ifndef EDGEPCC_PLATFORM_SIMD_H
#define EDGEPCC_PLATFORM_SIMD_H

#include <cstddef>
#include <cstdint>

// x86 target-attribute multiversioning is available on GCC/Clang;
// everything else (other arches, MSVC) gets the scalar fallback.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define EDGEPCC_SIMD_X86 1
#else
#define EDGEPCC_SIMD_X86 0
#endif

namespace edgepcc {

/** Instruction-set tiers, ordered so `<` means "subset of". */
enum class SimdLevel : int {
    kScalar = 0,  ///< portable reference path, always built
    kSse4 = 1,    ///< SSE4.2 (incl. hardware CRC32C)
    kAvx2 = 2,    ///< AVX2 256-bit integer ops
};

/** Display name: "scalar", "sse4" or "avx2". */
const char *simdLevelName(SimdLevel level);

/** Parses a level name; returns false (and leaves `out` untouched)
 *  on anything else. */
bool simdLevelFromName(const char *name, SimdLevel *out);

/** Highest level the host CPU supports (detected once, cached). */
SimdLevel detectSimdLevel();

/**
 * The level every kernel dispatches on: min(detected host level,
 * `EDGEPCC_SIMD` when set), frozen at first call. Test overrides via
 * setSimdLevelForTesting() take precedence.
 */
SimdLevel activeSimdLevel();

/**
 * Test-only override of the active level, clamped to what the host
 * supports; returns the level actually applied. Passing a level the
 * host lacks therefore applies (and returns) a lower one — tests
 * should iterate levels up to detectSimdLevel(). Not for production
 * use: kernels assume the level never rises mid-frame.
 */
SimdLevel setSimdLevelForTesting(SimdLevel level);

/** Removes the test override; dispatch returns to the startup
 *  (detected + EDGEPCC_SIMD) level. */
void clearSimdLevelForTesting();

/**
 * dst[i] ^= src[i] for `n` bytes, dispatched (AVX2: 32 B/step,
 * SSE4: 16 B/step). The unit-coefficient case of gfMulAddBytes,
 * which makes it the XOR-parity FEC inner loop. `dst` and `src`
 * must not overlap.
 */
void xorBytes(std::uint8_t *dst, const std::uint8_t *src,
              std::size_t n);

/**
 * dst[i] ^= coeff * src[i] in GF(256) (polynomial 0x11d) for `n`
 * bytes — the FEC parity/recovery inner loop. Dispatched:
 * scalar goes through the common/gf256.h log/exp tables; SSE4/AVX2
 * split each byte into nibbles and resolve both products with
 * PSHUFB lookups into two 16-entry product tables derived from
 * `coeff`. coeff == 0 is a no-op, coeff == 1 degenerates to
 * xorBytes. `dst` and `src` must not overlap.
 */
void gfMulAddBytes(std::uint8_t *dst, const std::uint8_t *src,
                   std::uint8_t coeff, std::size_t n);

}  // namespace edgepcc

#endif  // EDGEPCC_PLATFORM_SIMD_H
