// Population-count strategies.
//
// The TCIM architecture (paper §V-A) realizes BitCount in hardware as
// per-byte 8→256 look-up tables followed by an adder tree. This header
// provides that LUT variant (used by pim::BitCounter to model the
// hardware bit counter), the classic SWAR reduction, and the compiler
// builtin — all behaviourally identical, which the tests assert and the
// micro-kernel bench compares for throughput.
//
// Span kernels (PopcountWords / AndPopcount) called with the default
// PopcountKind::kBuiltin route through the process-wide SIMD kernel
// backend (kernel_backend.h) — the vectorized host stand-in for the
// in-MRAM AND+BitCount unit. A per-slice-pair AndPopcount call pays
// the whole dispatch bill for a 1–8 word payload, so the Eq. (5) hot
// paths gather their pairs as in-place descriptors and use the
// zero-copy pair kernel instead (bit::AndPopcountPairsZeroCopy; see
// docs/KERNELS.md). The hardware-model strategies (kSwar, kLut8,
// kLut16) never route through that dispatch, so pim::BitCounter and
// the ablations stay faithful to the modeled structure.
//
// Layer: §5 bitmatrix — see docs/ARCHITECTURE.md and docs/KERNELS.md.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace tcim::bit {

/// Which popcount implementation to use.
enum class PopcountKind : std::uint8_t {
  kBuiltin,   ///< host fast path: SIMD backend for spans (kernel_backend.h),
              ///< std::popcount for single words
  kSwar,      ///< branch-free SWAR bit trickery
  kLut8,      ///< per-byte 8->256 LUT + adder tree (hardware model)
  kLut16,     ///< per-halfword 16->65536 LUT
};

/// Branch-free SWAR popcount of one 64-bit word.
[[nodiscard]] constexpr int PopcountSwar(std::uint64_t x) noexcept {
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/// Σ popcount(a[k] & b[k]) over n words with the SWAR reduction, four
/// words sharing one horizontal fold — the span kernel of
/// PopcountKind::kSwar, and the kScalar backend's body on CPUs without
/// a popcount instruction (kernel_backend.h).
[[nodiscard]] std::uint64_t AndPopcountSwar(const std::uint64_t* a,
                                            const std::uint64_t* b,
                                            std::size_t n) noexcept;

/// Per-byte LUT popcount — the software twin of the paper's 8-256 LUT
/// bit counter module.
[[nodiscard]] int PopcountLut8(std::uint64_t x) noexcept;

/// Number of PopcountLut8 calls made by the *calling thread* so far.
/// The LUT path is the hardware *model*, not a fast path — this
/// counter lets tests assert that a caller which requested kLut8
/// really exercised it (and that hot paths did not). Per-thread so
/// the increment stays a plain add inside the benchmarked loop.
[[nodiscard]] std::uint64_t Lut8Invocations() noexcept;

/// Per-16-bit LUT popcount.
[[nodiscard]] int PopcountLut16(std::uint64_t x) noexcept;

/// Popcount of one word with the selected strategy.
[[nodiscard]] int Popcount(std::uint64_t x, PopcountKind kind) noexcept;

/// Popcount of a word span (Σ per-word counts) with the selected
/// strategy. Used to count a multi-word slice in one call.
[[nodiscard]] std::uint64_t PopcountWords(std::span<const std::uint64_t> words,
                                          PopcountKind kind) noexcept;

/// Σ popcount(a[k] & b[k]) — the fused AND+BitCount kernel at the heart
/// of Eq. (5). `a` and `b` must have equal size.
[[nodiscard]] std::uint64_t AndPopcount(std::span<const std::uint64_t> a,
                                        std::span<const std::uint64_t> b,
                                        PopcountKind kind =
                                            PopcountKind::kBuiltin) noexcept;

}  // namespace tcim::bit
