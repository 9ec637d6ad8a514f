// Runtime SIMD dispatch for the acquisition sweep's table-gather kernel.
//
// The sweep's hot loop — per candidate, gather one (log pg, log pb) table
// entry per parameter, accumulate each side in parameter order, subtract —
// is data-parallel across candidates with no cross-candidate dependencies,
// so it vectorizes lane-per-candidate: each SIMD lane executes the exact
// scalar float-op sequence (two parameter-ordered accumulators, one final
// subtraction), and the produced doubles are bitwise-identical to the
// scalar reference for every tier. Reduction order never changes; only
// how many candidates are in flight at once does.
//
// The tier itself (SimdTier, detection, the strict HPB_SIMD override) is
// decided in common/simd_tier.hpp, where streamed candidate generation
// reads it too; it is re-exported here for the sweep's callers. This
// layer has no AVX-512 kernel: at kAvx512 it runs its AVX2 one.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd_tier.hpp"

namespace hpb::core {

using hpb::active_simd_tier;
using hpb::detected_simd_tier;
using hpb::refresh_simd_tier;
using hpb::simd_tier_available;
using hpb::simd_tier_name;
using hpb::SimdTier;

/// Score candidates [begin, end) of a column-indexed pool into
/// out[0 .. end-begin). cols[i] points at parameter i's per-candidate
/// index column; log_good / log_bad are the flat per-parameter score
/// tables and offsets[i] the start of parameter i's rows. All tiers
/// produce bitwise-identical doubles (see file comment); the tier only
/// changes throughput. kAvx512 runs the AVX2 kernel.
void score_block(SimdTier tier, const double* log_good, const double* log_bad,
                 const std::size_t* offsets, const std::uint32_t* const* cols,
                 std::size_t num_params, std::size_t begin, std::size_t end,
                 double* out);

}  // namespace hpb::core
