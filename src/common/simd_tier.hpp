// The process's SIMD tier: which vector kernels the hot loops run.
//
// Two layers dispatch on it: the acquisition sweep's table-gather kernel
// (core/simd.hpp) and streamed candidate generation
// (space::CandidateStream::chunk_columns). Every vector kernel reproduces
// its scalar reference bit for bit, so the tier changes only throughput.
//
// Tier selection is a runtime decision: kernels are compiled per-ISA
// behind compile-time gates (CMake probes the compiler; see
// HPB_SIMD_AVX2 / HPB_SIMD_AVX512 / HPB_SIMD_NEON) and picked per-process
// by CPU detection, overridable with HPB_SIMD=off|avx2|avx512|neon
// (strict: requesting a tier the binary or CPU cannot run is an error, not
// a silent fallback).
#pragma once

#include <string_view>

namespace hpb {

/// Instruction sets a kernel exists for. kScalar is the reference path;
/// every other tier must match it bit for bit. A layer without a kernel
/// for a tier runs the widest one it has below it (the sweep runs its
/// AVX2 kernel at kAvx512).
enum class SimdTier {
  kScalar = 0,
  kAvx2 = 1,    // x86-64 AVX2
  kNeon = 2,    // aarch64 NEON
  kAvx512 = 3,  // x86-64 AVX-512 F + DQ + VL + BW (implies AVX2)
};

/// Stable lowercase tier name ("scalar", "avx2", "neon", "avx512") for
/// traces, bench JSON, and error messages.
[[nodiscard]] std::string_view simd_tier_name(SimdTier tier) noexcept;

/// True when this binary carries the tier's kernels AND the running CPU
/// can execute them. kScalar is always runnable.
[[nodiscard]] bool simd_tier_available(SimdTier tier) noexcept;

/// Best available tier on this machine (hardware detection only, no env).
[[nodiscard]] SimdTier detected_simd_tier() noexcept;

/// Tier the kernels actually use: detected_simd_tier() unless HPB_SIMD
/// overrides it. Parsed strictly on first use and cached; an unknown
/// value or an unavailable tier throws hpb::Error.
[[nodiscard]] SimdTier active_simd_tier();

/// Drop the cached HPB_SIMD decision so the next active_simd_tier() call
/// re-reads the environment. Test hook for in-process setenv overrides.
void refresh_simd_tier();

}  // namespace hpb
