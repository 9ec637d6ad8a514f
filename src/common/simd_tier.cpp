#include "common/simd_tier.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace hpb {
namespace {

/// HPB_SIMD parse + availability check; strict like every other HPB_ env.
SimdTier resolve_active_tier() {
  const char* env = std::getenv("HPB_SIMD");
  if (env == nullptr || *env == '\0') {
    return detected_simd_tier();
  }
  const std::string value(env);
  SimdTier tier = SimdTier::kScalar;
  if (value == "off") {
    tier = SimdTier::kScalar;
  } else if (value == "avx2") {
    tier = SimdTier::kAvx2;
  } else if (value == "avx512") {
    tier = SimdTier::kAvx512;
  } else if (value == "neon") {
    tier = SimdTier::kNeon;
  } else {
    HPB_REQUIRE(false, "HPB_SIMD must be off, avx2, avx512, or neon; got '" +
                           value + "'");
  }
  HPB_REQUIRE(simd_tier_available(tier),
              "HPB_SIMD=" + value +
                  " requests a SIMD tier this build or CPU cannot run "
                  "(detected tier: " +
                  std::string(simd_tier_name(detected_simd_tier())) + ")");
  return tier;
}

/// Cached HPB_SIMD decision; -1 = not resolved yet. Resolution is
/// idempotent, so a first-use race at worst resolves twice.
std::atomic<int> g_active_tier{-1};

}  // namespace

std::string_view simd_tier_name(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kNeon:
      return "neon";
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kScalar:
      break;
  }
  return "scalar";
}

bool simd_tier_available(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kAvx2:
#if defined(HPB_SIMD_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdTier::kAvx512:
#if defined(HPB_SIMD_AVX512)
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#else
      return false;
#endif
    case SimdTier::kNeon:
#if defined(HPB_SIMD_NEON)
      return true;  // baseline on every aarch64 CPU
#else
      return false;
#endif
  }
  return false;
}

SimdTier detected_simd_tier() noexcept {
  for (const SimdTier tier :
       {SimdTier::kAvx512, SimdTier::kAvx2, SimdTier::kNeon}) {
    if (simd_tier_available(tier)) {
      return tier;
    }
  }
  return SimdTier::kScalar;
}

SimdTier active_simd_tier() {
  const int cached = g_active_tier.load(std::memory_order_acquire);
  if (cached >= 0) {
    return static_cast<SimdTier>(cached);
  }
  const SimdTier tier = resolve_active_tier();
  g_active_tier.store(static_cast<int>(tier), std::memory_order_release);
  return tier;
}

void refresh_simd_tier() {
  g_active_tier.store(-1, std::memory_order_release);
}

}  // namespace hpb
