#include "pi/batch_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace mqpi::pi {

namespace detail {

void SweepScalar(const double* v, const double* prefix_w,
                 const double* prefix_vw, std::size_t n, double x,
                 double total_w, double inv_rate, double* eta) {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = prefix_vw[i] - x * prefix_w[i] +
                     (v[i] - x) * (total_w - prefix_w[i]);
    eta[i] = std::max(0.0, r) * inv_rate;
  }
}

#if defined(__aarch64__)
void SweepNeon(const double* v, const double* prefix_w,
               const double* prefix_vw, std::size_t n, double x,
               double total_w, double inv_rate, double* eta) {
  const float64x2_t vx = vdupq_n_f64(x);
  const float64x2_t vtw = vdupq_n_f64(total_w);
  const float64x2_t vinv = vdupq_n_f64(inv_rate);
  const float64x2_t vzero = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t vv = vld1q_f64(v + i);
    const float64x2_t vpw = vld1q_f64(prefix_w + i);
    const float64x2_t vpvw = vld1q_f64(prefix_vw + i);
    // r = pvw - x*pw + (v - x) * (W - pw)
    float64x2_t r = vfmsq_f64(vpvw, vx, vpw);
    r = vfmaq_f64(r, vsubq_f64(vv, vx), vsubq_f64(vtw, vpw));
    r = vmulq_f64(vmaxq_f64(r, vzero), vinv);
    vst1q_f64(eta + i, r);
  }
  for (; i < n; ++i) {  // the lanes' fused operations, one at a time
    const double r = std::fma(v[i] - x, total_w - prefix_w[i],
                              std::fma(-x, prefix_w[i], prefix_vw[i]));
    eta[i] = std::max(0.0, r) * inv_rate;
  }
}
#endif  // __aarch64__

}  // namespace detail

namespace {
std::atomic<bool> g_force_scalar{false};
}  // namespace

detail::BatchSweepFn detail::ResolveSweep() {
  if (g_force_scalar.load(std::memory_order_relaxed)) {
    return &detail::SweepScalar;
  }
#if defined(MQPI_HAVE_AVX2) && defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return &detail::SweepAvx2;
  }
#endif
#if defined(__aarch64__)
  return &detail::SweepNeon;
#endif
  return &detail::SweepScalar;
}

const char* ActiveIsaName() {
  const detail::BatchSweepFn sweep = detail::ResolveSweep();
#if defined(MQPI_HAVE_AVX2) && defined(__x86_64__)
  if (sweep == &detail::SweepAvx2) return "avx2";
#endif
#if defined(__aarch64__)
  if (sweep == &detail::SweepNeon) return "neon";
#endif
  (void)sweep;
  return "scalar";
}

void ForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

}  // namespace mqpi::pi
