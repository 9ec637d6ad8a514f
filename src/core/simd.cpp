#include "core/simd.hpp"

#if defined(HPB_SIMD_AVX2)
#include <immintrin.h>
#endif
#if defined(HPB_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace hpb::core {
namespace {

/// Scalar reference kernel. Every vector tier below reproduces exactly
/// this per-candidate float-op sequence — two accumulators added in
/// parameter order, one subtraction — so their outputs are bitwise-equal.
void score_block_scalar(const double* log_good, const double* log_bad,
                        const std::size_t* offsets,
                        const std::uint32_t* const* cols,
                        std::size_t num_params, std::size_t begin,
                        std::size_t end, double* out) {
  for (std::size_t j = begin; j < end; ++j) {
    double lg = 0.0;
    double lb = 0.0;
    for (std::size_t i = 0; i < num_params; ++i) {
      const std::size_t at = offsets[i] + cols[i][j];
      lg += log_good[at];
      lb += log_bad[at];
    }
    out[j - begin] = lg - lb;
  }
}

#if defined(HPB_SIMD_AVX2)
/// 4 candidates per iteration: one 128-bit load of 4 uint32 indices per
/// parameter feeds two vgatherdpd gathers (good and bad tables). Each
/// lane's accumulation order is the scalar order, so lanes are
/// bitwise-identical to scalar; the tail runs the scalar kernel.
__attribute__((target("avx2")))
void score_block_avx2(const double* log_good, const double* log_bad,
                      const std::size_t* offsets,
                      const std::uint32_t* const* cols, std::size_t num_params,
                      std::size_t begin, std::size_t end, double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  std::size_t j = begin;
  for (; j + 4 <= end; j += 4) {
    __m256d lg = _mm256_setzero_pd();
    __m256d lb = _mm256_setzero_pd();
    for (std::size_t i = 0; i < num_params; ++i) {
      const __m128i idx = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cols[i] + j));
      const double* good_base = log_good + offsets[i];
      const double* bad_base = log_bad + offsets[i];
      // The masked form with a zero source and every lane enabled is the
      // same vgatherdpd, without the unmasked form's undefined source.
      lg = _mm256_add_pd(lg, _mm256_mask_i32gather_pd(zero, good_base, idx,
                                                      all, 8));
      lb = _mm256_add_pd(lb, _mm256_mask_i32gather_pd(zero, bad_base, idx,
                                                      all, 8));
    }
    _mm256_storeu_pd(out + (j - begin), _mm256_sub_pd(lg, lb));
  }
  if (j < end) {
    score_block_scalar(log_good, log_bad, offsets, cols, num_params, j, end,
                       out + (j - begin));
  }
}
#endif  // HPB_SIMD_AVX2

#if defined(HPB_SIMD_NEON)
/// 2 candidates per iteration. NEON has no gather, so table entries are
/// loaded per lane and packed; the win over scalar is the paired adds and
/// the halved loop overhead. Lane order equals scalar order.
void score_block_neon(const double* log_good, const double* log_bad,
                      const std::size_t* offsets,
                      const std::uint32_t* const* cols, std::size_t num_params,
                      std::size_t begin, std::size_t end, double* out) {
  std::size_t j = begin;
  for (; j + 2 <= end; j += 2) {
    float64x2_t lg = vdupq_n_f64(0.0);
    float64x2_t lb = vdupq_n_f64(0.0);
    for (std::size_t i = 0; i < num_params; ++i) {
      const std::size_t a0 = offsets[i] + cols[i][j];
      const std::size_t a1 = offsets[i] + cols[i][j + 1];
      float64x2_t g = vld1q_dup_f64(log_good + a0);
      g = vld1q_lane_f64(log_good + a1, g, 1);
      float64x2_t b = vld1q_dup_f64(log_bad + a0);
      b = vld1q_lane_f64(log_bad + a1, b, 1);
      lg = vaddq_f64(lg, g);
      lb = vaddq_f64(lb, b);
    }
    vst1q_f64(out + (j - begin), vsubq_f64(lg, lb));
  }
  if (j < end) {
    score_block_scalar(log_good, log_bad, offsets, cols, num_params, j, end,
                       out + (j - begin));
  }
}
#endif  // HPB_SIMD_NEON

}  // namespace

void score_block(SimdTier tier, const double* log_good, const double* log_bad,
                 const std::size_t* offsets, const std::uint32_t* const* cols,
                 std::size_t num_params, std::size_t begin, std::size_t end,
                 double* out) {
  if (begin >= end) {
    return;
  }
  switch (tier) {
#if defined(HPB_SIMD_AVX2)
    case SimdTier::kAvx2:
    case SimdTier::kAvx512:  // no wider kernel: AVX-512 CPUs run AVX2
      score_block_avx2(log_good, log_bad, offsets, cols, num_params, begin,
                       end, out);
      return;
#endif
#if defined(HPB_SIMD_NEON)
    case SimdTier::kNeon:
      score_block_neon(log_good, log_bad, offsets, cols, num_params, begin,
                       end, out);
      return;
#endif
    default:
      break;
  }
  score_block_scalar(log_good, log_bad, offsets, cols, num_params, begin, end,
                     out);
}

}  // namespace hpb::core
