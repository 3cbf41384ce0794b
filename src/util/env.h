// Environment-variable knobs shared by the bench harnesses.
//
//   TCIM_SCALE  — multiplier in (0, 1] applied to the vertex/edge
//                 counts of the synthesized paper graphs. Defaults
//                 below keep the default `ctest`/bench run to minutes;
//                 TCIM_SCALE=1 reproduces full Table II sizes.
//   TCIM_SEED   — base RNG seed for workload synthesis (default 42).
//   TCIM_KERNEL — forces the SIMD kernel backend of the Eq. (5) host
//                 hot path (scalar|avx2|avx512vpopcnt|neon|auto);
//                 consumed by bit::ActiveBackend(), see
//                 docs/KERNELS.md.
//
// Layer: §1 util — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <string>

namespace tcim::util {

/// Reads a double from the environment; returns `fallback` when unset
/// or unparsable. Values are clamped to [min_value, max_value].
[[nodiscard]] double EnvDouble(const std::string& name, double fallback,
                               double min_value, double max_value);

/// Reads an unsigned integer from the environment with a fallback.
[[nodiscard]] std::uint64_t EnvU64(const std::string& name,
                                   std::uint64_t fallback);

/// Reads a string from the environment; returns `fallback` when the
/// variable is unset or empty.
[[nodiscard]] std::string EnvString(const std::string& name,
                                    const std::string& fallback);

/// Global workload scale factor in (0, 1]; see file comment.
[[nodiscard]] double WorkloadScale(double fallback = 0.25);

/// Global base seed; see file comment.
[[nodiscard]] std::uint64_t BaseSeed();

}  // namespace tcim::util
