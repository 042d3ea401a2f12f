// AVX2+FMA variant of the batch estimate sweep. This translation unit
// is compiled with -mavx2 -mfma (see src/pi/CMakeLists.txt) and is
// only reachable through batch_kernel.cc's runtime dispatcher after a
// __builtin_cpu_supports("avx2")/"fma" check, so building it on any
// x86-64 toolchain is safe even when the deployment CPU lacks AVX2.
// Non-x86 or AVX2-incapable toolchains skip the file entirely and the
// dispatcher falls back to NEON/scalar.
#include "pi/batch_kernel.h"

#if defined(MQPI_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace mqpi::pi::detail {

void SweepAvx2(const double* v, const double* prefix_w,
               const double* prefix_vw, std::size_t n, double x,
               double total_w, double inv_rate, double* eta) {
  const __m256d vx = _mm256_set1_pd(x);
  const __m256d vtw = _mm256_set1_pd(total_w);
  const __m256d vinv = _mm256_set1_pd(inv_rate);
  const __m256d vzero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vv = _mm256_loadu_pd(v + i);
    const __m256d vpw = _mm256_loadu_pd(prefix_w + i);
    const __m256d vpvw = _mm256_loadu_pd(prefix_vw + i);
    // r = pvw - x*pw + (v - x) * (W - pw)
    __m256d r = _mm256_fnmadd_pd(vx, vpw, vpvw);
    r = _mm256_fmadd_pd(_mm256_sub_pd(vv, vx), _mm256_sub_pd(vtw, vpw), r);
    r = _mm256_mul_pd(_mm256_max_pd(r, vzero), vinv);
    _mm256_storeu_pd(eta + i, r);
  }
  for (; i < n; ++i) {  // the lanes' fused operations, one at a time
    const double r = std::fma(v[i] - x, total_w - prefix_w[i],
                              std::fma(-x, prefix_w[i], prefix_vw[i]));
    eta[i] = std::max(0.0, r) * inv_rate;
  }
}

}  // namespace mqpi::pi::detail

#endif  // MQPI_HAVE_AVX2
