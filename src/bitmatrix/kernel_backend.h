// SIMD kernel backends for the Eq. (5) hot path.
//
// Every triangle the system counts funnels through the fused
// AND+BitCount span kernel (popcount.h). This header turns that kernel
// into a pluggable subsystem: each KernelBackend is one vectorization
// of Σ popcount(a[k] & b[k]) — bit-exact with the scalar loop, differing
// only in throughput. Backends are compile-time guarded (a binary only
// contains what its compiler can emit), runtime gated (CPUID feature
// detection picks the widest backend the machine executes), and
// process-wide switchable: a dispatch slot read by every hot-path call,
// overridable via the TCIM_KERNEL environment variable or
// SetActiveBackend() so tests and benches can force any backend.
//
// The hardware-model strategies (PopcountKind::kLut8 etc., used by
// pim::BitCounter to mirror the paper's §V-A LUT + adder tree) never
// route through this dispatch — they stay exact per-word models.
//
// Layer: §12 kernels — see docs/ARCHITECTURE.md and docs/KERNELS.md.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace tcim::bit {

/// One vectorization of the fused AND+popcount span kernel.
enum class KernelBackend : std::uint8_t {
  kScalar,         ///< per-word POPCNT loop; quad-SWAR without POPCNT
  kAvx2,           ///< AVX2 Harley–Seal CSA + byte-shuffle popcount
  kAvx512Vpopcnt,  ///< AVX-512 VPOPCNTDQ, 8 words per instruction
  kNeon,           ///< AArch64 NEON vcnt + horizontal add
};

inline constexpr std::size_t kNumKernelBackends = 4;

/// Stable lowercase name ("scalar", "avx2", "avx512vpopcnt", "neon") —
/// the TCIM_KERNEL vocabulary.
[[nodiscard]] const char* ToString(KernelBackend backend) noexcept;

/// Inverse of ToString; also accepts the "avx512" alias.
/// Returns nullopt for unknown names (including "auto").
[[nodiscard]] std::optional<KernelBackend> ParseKernelBackend(
    std::string_view name) noexcept;

/// All enum values in declaration order (for sweeps).
[[nodiscard]] std::span<const KernelBackend> AllKernelBackends() noexcept;

/// The executable subset of AllKernelBackends() on this machine, in
/// declaration order — what parity tests and benches iterate.
[[nodiscard]] std::span<const KernelBackend> SupportedKernelBackends() noexcept;

/// True when this binary contains code for the backend (compile-time
/// guard: e.g. kNeon is never compiled into an x86 binary).
[[nodiscard]] bool BackendCompiledIn(KernelBackend backend) noexcept;

/// True when the backend is compiled in *and* this CPU can execute it
/// (runtime feature detection). kScalar is always supported: it needs
/// nothing beyond baseline ISA.
[[nodiscard]] bool BackendSupported(KernelBackend backend) noexcept;

/// The widest supported backend — what auto-dispatch picks.
[[nodiscard]] KernelBackend BestSupportedBackend() noexcept;

/// The backend behind every PopcountKind::kBuiltin span call. Resolved
/// once per process: TCIM_KERNEL if set to a supported backend name
/// (unknown or unsupported values warn once on stderr and fall back),
/// otherwise BestSupportedBackend().
[[nodiscard]] KernelBackend ActiveBackend() noexcept;

/// Forces the process-wide dispatch to `backend` (tests/benches).
/// Throws std::invalid_argument when the backend is not supported on
/// this machine — forcing it would execute illegal instructions.
void SetActiveBackend(KernelBackend backend);

/// Re-resolves the active backend from TCIM_KERNEL (for tests that
/// setenv() after process start). Returns the new active backend.
KernelBackend RefreshActiveBackendFromEnv();

/// Σ popcount(a[k] & b[k]) over min(a.size(), b.size()) words with an
/// explicit backend, bypassing the process-wide dispatch — the entry
/// point for parity tests and the perf harness. Throws
/// std::invalid_argument when the backend is not supported.
[[nodiscard]] std::uint64_t AndPopcountBackend(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b,
    KernelBackend backend);

/// Σ popcount(w[k]) with an explicit backend; same contract.
[[nodiscard]] std::uint64_t PopcountWordsBackend(
    std::span<const std::uint64_t> words, KernelBackend backend);

/// Hot-path dispatch through the active backend. No validation, no
/// span plumbing — popcount.cpp calls these for PopcountKind::kBuiltin.
/// `a`/`b`/`words` may be null only when n == 0.
[[nodiscard]] std::uint64_t AndPopcountActive(const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              std::size_t n) noexcept;
[[nodiscard]] std::uint64_t PopcountWordsActive(const std::uint64_t* words,
                                                std::size_t n) noexcept;

// ---------------------------------------------------------------------------
// Zero-copy pair kernel.
//
// A per-slice-pair AndPopcount call pays the full dispatch bill —
// atomic backend load, kind switch, SIMD prologue/epilogue — for a
// payload of 1–8 words. The Eq. (5) consumers instead gather matched
// slice pairs as (a_ptr, b_ptr, words) descriptors that point at the
// words where they already sit, and hand the list to the kernel below:
// the backend function pointer is resolved once per list and the next
// pairs' words are software-prefetched while the current one is
// summed. No gather copy — the only per-pair cost is one indirect call
// on already-prefetched lines (see docs/KERNELS.md).

/// One matched slice pair, referenced in place. `words` is the slice
/// width (≤ 8 for every slice geometry the matrix layer produces, but
/// the kernel accepts any length).
struct PairRef {
  const std::uint64_t* a;
  const std::uint64_t* b;
  std::uint32_t words;
};

/// Σ popcount(a & b) over every descriptor, evaluated by the active
/// backend with one dispatch resolution for the whole list and
/// software prefetch of the next pair. Descriptor pointers may be null
/// only when that descriptor's `words` is 0.
[[nodiscard]] std::uint64_t AndPopcountPairsZeroCopy(
    std::span<const PairRef> pairs) noexcept;

/// Same with an explicit backend (parity tests, perf harness). Throws
/// std::invalid_argument when the backend is not supported.
[[nodiscard]] std::uint64_t AndPopcountPairsZeroCopyBackend(
    std::span<const PairRef> pairs, KernelBackend backend);

// ---------------------------------------------------------------------------
// Direct pair loop.
//
// One measured regime defeats the gathered descriptor list: wide
// slices whose stores both spill the cache hierarchy AND have no slice
// reuse (sparse near-uniform graphs — the roadNet |S|=512 rows). There
// every pair is a cold DRAM touch, and dispatching it immediately
// during enumeration lets out-of-order execution overlap the misses
// with enumeration work; a deferred descriptor flush, even prefetched,
// trails by ~5%. Hub-skewed stores of the same byte size (com-youtube,
// com-lj) stay zero-copy: their reused slices are cache-hot.
// Thresholds calibrated on the schema-v4 BENCH_kernels.json matrix.

/// The direct loop needs at least this slice width (words).
inline constexpr std::size_t kDirectMinWidth = 8;
/// ... and the pass's two stores to exceed this many heap bytes
/// (≈ one LLC; sysconf reports socket-aggregate LLC on chiplet parts,
/// so a fixed constant beats detection).
inline constexpr std::uint64_t kDirectMinStoreBytes = std::uint64_t{32} << 20;
/// ... and at most this many valid slices per pivot vector on average
/// (low ⇒ no reuse ⇒ cold stream; hub-skewed graphs sit well above).
inline constexpr double kDirectMaxAvgValidSlices = 1.6;

/// The pass-level route decision, made once per Eq. (5) row pass
/// before any gathering: true routes the whole pass through the direct
/// merge loop (immediate per-pair dispatch during enumeration, counted
/// as the per-pair path). `store_bytes` is the summed heap footprint
/// of the two stores the pass reads; `avg_valid_slices` is
/// valid_slice_count()/num_vectors() of the pivot-row store.
[[nodiscard]] constexpr bool ChooseDirectPairLoop(
    std::size_t width_words, std::uint64_t store_bytes,
    double avg_valid_slices) noexcept {
  return width_words >= kDirectMinWidth &&
         store_bytes > kDirectMinStoreBytes &&
         avg_valid_slices <= kDirectMaxAvgValidSlices;
}

}  // namespace tcim::bit
