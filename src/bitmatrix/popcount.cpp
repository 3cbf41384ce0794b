#include "bitmatrix/popcount.h"

#include <array>

#include "bitmatrix/kernel_backend.h"

namespace tcim::bit {
namespace {

// Per-thread call counter for the hardware-model path; see
// Lut8Invocations(). thread_local keeps the increment a plain add —
// an atomic here would put a locked RMW inside the loop the strategy
// benchmarks measure.
thread_local std::uint64_t t_lut8_invocations = 0;

constexpr std::array<std::uint8_t, 256> MakeLut8() {
  std::array<std::uint8_t, 256> lut{};
  for (int i = 0; i < 256; ++i) {
    lut[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(PopcountSwar(static_cast<std::uint64_t>(i)));
  }
  return lut;
}

const std::array<std::uint8_t, 256> kLut8 = MakeLut8();

std::array<std::uint8_t, 65536> MakeLut16() {
  std::array<std::uint8_t, 65536> lut{};
  for (std::size_t i = 0; i < lut.size(); ++i) {
    lut[i] = static_cast<std::uint8_t>(PopcountSwar(i));
  }
  return lut;
}

const std::array<std::uint8_t, 65536>& Lut16() {
  static const std::array<std::uint8_t, 65536> lut = MakeLut16();
  return lut;
}

}  // namespace

std::uint64_t AndPopcountSwar(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t n) noexcept {
  // Each word is reduced to per-byte counts (three shift/mask stages),
  // four byte-count words are summed vertically (bytes reach at most
  // 4*8 = 32, so no carry crosses a byte lane), and ONE shared
  // horizontal fold replaces the four multiply+shift reductions a
  // per-word PopcountSwar pays.
  constexpr std::uint64_t k1 = 0x5555555555555555ULL;
  constexpr std::uint64_t k2 = 0x3333333333333333ULL;
  constexpr std::uint64_t k4 = 0x0F0F0F0F0F0F0F0FULL;
  const auto byte_counts = [](std::uint64_t x) {
    x = x - ((x >> 1) & k1);
    x = (x & k2) + ((x >> 2) & k2);
    return (x + (x >> 4)) & k4;
  };
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint64_t s = byte_counts(a[i] & b[i]) +
                      byte_counts(a[i + 1] & b[i + 1]) +
                      byte_counts(a[i + 2] & b[i + 2]) +
                      byte_counts(a[i + 3] & b[i + 3]);
    // Horizontal byte sum. Bytes of s reach 32, so fold through 16-bit
    // lanes; the classic multiply trick would overflow its top byte at
    // the all-ones quad (256 > 255).
    s = (s & 0x00FF00FF00FF00FFULL) + ((s >> 8) & 0x00FF00FF00FF00FFULL);
    total += (s * 0x0001000100010001ULL) >> 48;
  }
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(PopcountSwar(a[i] & b[i]));
  }
  return total;
}

int PopcountLut8(std::uint64_t x) noexcept {
  ++t_lut8_invocations;
  // Eight byte lookups summed pairwise — mirrors the hardware adder
  // tree (4 + 2 + 1 adders) described in paper §V-A.
  const int b0 = kLut8[static_cast<std::uint8_t>(x)];
  const int b1 = kLut8[static_cast<std::uint8_t>(x >> 8)];
  const int b2 = kLut8[static_cast<std::uint8_t>(x >> 16)];
  const int b3 = kLut8[static_cast<std::uint8_t>(x >> 24)];
  const int b4 = kLut8[static_cast<std::uint8_t>(x >> 32)];
  const int b5 = kLut8[static_cast<std::uint8_t>(x >> 40)];
  const int b6 = kLut8[static_cast<std::uint8_t>(x >> 48)];
  const int b7 = kLut8[static_cast<std::uint8_t>(x >> 56)];
  const int s0 = b0 + b1;
  const int s1 = b2 + b3;
  const int s2 = b4 + b5;
  const int s3 = b6 + b7;
  return (s0 + s1) + (s2 + s3);
}

std::uint64_t Lut8Invocations() noexcept { return t_lut8_invocations; }

int PopcountLut16(std::uint64_t x) noexcept {
  const auto& lut = Lut16();
  return lut[static_cast<std::uint16_t>(x)] +
         lut[static_cast<std::uint16_t>(x >> 16)] +
         lut[static_cast<std::uint16_t>(x >> 32)] +
         lut[static_cast<std::uint16_t>(x >> 48)];
}

int Popcount(std::uint64_t x, PopcountKind kind) noexcept {
  switch (kind) {
    case PopcountKind::kBuiltin:
      return std::popcount(x);
    case PopcountKind::kSwar:
      return PopcountSwar(x);
    case PopcountKind::kLut8:
      return PopcountLut8(x);
    case PopcountKind::kLut16:
      return PopcountLut16(x);
  }
  return std::popcount(x);  // unreachable; keeps -Wreturn-type quiet
}

std::uint64_t PopcountWords(std::span<const std::uint64_t> words,
                            PopcountKind kind) noexcept {
  if (kind == PopcountKind::kBuiltin) {
    // Host fast path: the active SIMD kernel backend.
    return PopcountWordsActive(words.data(), words.size());
  }
  if (kind == PopcountKind::kSwar) {
    return AndPopcountSwar(words.data(), words.data(), words.size());
  }
  std::uint64_t total = 0;
  for (const std::uint64_t w : words) {
    total += static_cast<std::uint64_t>(Popcount(w, kind));
  }
  return total;
}

std::uint64_t AndPopcount(std::span<const std::uint64_t> a,
                          std::span<const std::uint64_t> b,
                          PopcountKind kind) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  if (kind == PopcountKind::kBuiltin) {
    // Host fast path: the active SIMD kernel backend. The hardware-
    // model strategies below keep the exact per-word loop instead.
    return AndPopcountActive(a.data(), b.data(), n);
  }
  if (kind == PopcountKind::kSwar) {
    return AndPopcountSwar(a.data(), b.data(), n);
  }
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += static_cast<std::uint64_t>(Popcount(a[k] & b[k], kind));
  }
  return total;
}

}  // namespace tcim::bit
