// The estimate-all sweep: the paper's Section 2.2 stage formula as one
// elementwise pass over IncrementalForecast's finish-ordered view.
//
// With the active set in ascending (v, id) order and
//
//   v[i]          absolute finish threshold X0 + c/w
//   prefix_w[i]   sum of w[j], j <= i
//   prefix_vw[i]  sum of v[j]*w[j], j <= i
//
// every remaining time is
//
//   eta[i] = max(0, prefix_vw[i] - X*prefix_w[i]
//                   + (v[i] - X) * (W - prefix_w[i])) / C
//
// with no data dependence between lanes, so the sweep vectorizes
// (AVX2 on x86-64, NEON on aarch64, portable scalar everywhere else;
// the implementation is picked at runtime from CPU features and can
// be pinned to scalar for differential tests). Progress only moves the
// scalar X, so a steady-state estimate-all is exactly one sweep over
// three flat arrays: single-digit ns per query at n = 5000.
//
// Each variant computes an element with the same operations whether it
// lands in a vector lane or in the tail, so a one-element sweep (the
// engine's point query) is bit-identical to that element's row in a
// full sweep.
//
// Thread-safety: the sweeps are pure. The ForceScalar toggle is
// process-global and intended for tests/benches only.
#pragma once

#include <cstddef>

namespace mqpi::pi {

namespace detail {

/// The elementwise stage sweep all ISA variants implement:
/// eta[i] = max(0, prefix_vw[i] - x*prefix_w[i]
///              + (v[i] - x) * (total_w - prefix_w[i])) * inv_rate.
using BatchSweepFn = void (*)(const double* v, const double* prefix_w,
                              const double* prefix_vw, std::size_t n,
                              double x, double total_w, double inv_rate,
                              double* eta);

void SweepScalar(const double* v, const double* prefix_w,
                 const double* prefix_vw, std::size_t n, double x,
                 double total_w, double inv_rate, double* eta);
#if defined(MQPI_HAVE_AVX2)
/// Compiled with -mavx2 -mfma in batch_kernel_avx2.cc; only ever
/// dispatched to after a runtime __builtin_cpu_supports check.
void SweepAvx2(const double* v, const double* prefix_w,
               const double* prefix_vw, std::size_t n, double x,
               double total_w, double inv_rate, double* eta);
#endif
#if defined(__aarch64__)
void SweepNeon(const double* v, const double* prefix_w,
               const double* prefix_vw, std::size_t n, double x,
               double total_w, double inv_rate, double* eta);
#endif

/// The sweep CPU-feature dispatch resolves to right now, honoring
/// ForceScalar.
BatchSweepFn ResolveSweep();

}  // namespace detail

/// The sweep implementation dispatch resolves to right now ("avx2",
/// "neon", or "scalar"), honoring ForceScalar.
const char* ActiveIsaName();

/// Test/bench hook: true pins every sweep in the process to the
/// portable scalar variant; false restores CPU-feature dispatch.
void ForceScalar(bool force);

}  // namespace mqpi::pi
