#ifndef MVG_TS_TS_KERNELS_H_
#define MVG_TS_TS_KERNELS_H_

// Vectorized feature-extraction front-end: the multiscale coarse-grain
// assembly (pairwise halving PAA), the least-squares detrend, and the
// non-finite sanitization scan, written as util/simd.h lane kernels.
//
// Determinism contract (same as ml/hist_kernels.h and vg/vg_kernels.h):
// every kernel has one fixed 4-lane shape on every backend — the main loop
// uses F64x4 lane ops whose semantics are pinned to the scalar spelling,
// reductions are lane-order folds, and the tail is plain scalar code — so
// outputs are bit-identical across AVX2 / SSE2 / scalar / MVG_SIMD_OFF.
//
// PairwiseHalveInto and DetrendApplyInto are elementwise (output i depends
// only on input lane i), so they are additionally bit-identical to the
// naive scalar loops they replace. The detrend sums and the recentering
// mean use four strided accumulators folded in lane order: deterministic
// and backend-invariant, but a different (equally valid) float summation
// order than the old sequential loop in ts/transforms.cc.
//
// The incremental multiscale construction lives here too: scale k+1 is
// derived from the pairwise partial sums of scale k (not by re-walking the
// raw series), and MultiscaleScratch pools every per-scale buffer so a
// workspace reused across a batch reaches zero steady-state allocation on
// the assembly path.

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "ts/dataset.h"
#include "ts/multiscale.h"
#include "util/simd.h"

namespace mvg {
namespace ts_kernels {

/// dst[i] = 0.5 * (src[2i] + src[2i+1]) for i in [0, n/2) — the halving
/// PAA step (paper Def. 3.1). Elementwise, so bit-identical to the scalar
/// loop. `dst` must not overlap `src`.
MVG_NO_AUTOVEC inline void PairwiseHalveInto(const double* src, size_t n,
                                             double* dst) {
  const size_t half = n / 2;
  const simd::F64x4 vhalf = simd::F64x4::Broadcast(0.5);
  size_t i = 0;
  for (; i + 4 <= half; i += 4) {
    simd::F64x4 even, odd;
    simd::DeinterleaveEvenOdd(simd::F64x4::Load(src + 2 * i),
                              simd::F64x4::Load(src + 2 * i + 4), &even,
                              &odd);
    (vhalf * (even + odd)).Store(dst + i);
  }
  for (; i < half; ++i) dst[i] = 0.5 * (src[2 * i] + src[2 * i + 1]);
}

/// Result of the non-finite scan: min/max over the finite samples
/// (+inf/-inf when there are none) and their count. lo/hi/finite are
/// order-invariant, so they equal the sequential scalar scan's results
/// (up to the sign of a zero, which no consumer can observe).
struct FiniteScan {
  double lo;
  double hi;
  size_t finite;
};

/// Scans for non-finite samples. A lane v is finite iff v - v == 0 (inf
/// and NaN both yield NaN), which vectorizes as one subtract + compare —
/// no per-lane isfinite calls.
MVG_NO_AUTOVEC inline FiniteScan ScanFinite(const double* s, size_t n) {
  const double inf = std::numeric_limits<double>::infinity();
  double lo = inf, hi = -inf;
  size_t finite = 0;
  size_t i = 0;
  if (n >= 4) {
    const simd::F64x4 zero = simd::F64x4::Zero();
    const simd::F64x4 pinf = simd::F64x4::Broadcast(inf);
    const simd::F64x4 ninf = simd::F64x4::Broadcast(-inf);
    simd::F64x4 vlo = pinf, vhi = ninf;
    for (; i + 4 <= n; i += 4) {
      const simd::F64x4 v = simd::F64x4::Load(s + i);
      const simd::M64x4 fin = simd::CmpEQ(v - v, zero);
      vlo = simd::Min(vlo, simd::Blend(fin, v, pinf));
      vhi = simd::Max(vhi, simd::Blend(fin, v, ninf));
      finite += static_cast<size_t>(simd::CountLanes(simd::MoveMask(fin)));
    }
    lo = simd::ReduceMinOrdered(vlo);
    hi = simd::ReduceMaxOrdered(vhi);
  }
  for (; i < n; ++i) {
    const double v = s[i];
    if (v - v == 0.0) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      ++finite;
    }
  }
  return {lo, hi, finite};
}

/// The two data-dependent least-squares sums (sum of s[i] and of i*s[i]);
/// sum(i) and sum(i*i) have closed forms and need no pass. Four strided
/// accumulators, lane-order fold, scalar tail — one shape on every
/// backend.
struct DetrendSums {
  double sy;
  double sxy;
};
MVG_NO_AUTOVEC inline DetrendSums AccumulateDetrendSums(const double* s,
                                                        size_t n) {
  simd::F64x4 acc_y = simd::F64x4::Zero();
  simd::F64x4 acc_xy = simd::F64x4::Zero();
  simd::F64x4 idx = simd::F64x4::Set(0.0, 1.0, 2.0, 3.0);
  const simd::F64x4 four = simd::F64x4::Broadcast(4.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const simd::F64x4 v = simd::F64x4::Load(s + i);
    acc_y = acc_y + v;
    acc_xy = simd::MulAdd(idx, v, acc_xy);
    idx = idx + four;
  }
  double sy = simd::ReduceAddOrdered(acc_y);
  double sxy = simd::ReduceAddOrdered(acc_xy);
  for (; i < n; ++i) {
    sy += s[i];
    const double m = static_cast<double>(i) * s[i];
    sxy += m;
  }
  return {sy, sxy};
}

/// out[i] = s[i] - slope * (i - mid). Elementwise; in-place (out == s) is
/// fine. Returns sum(out) with the same 4-accumulator fold as
/// AccumulateDetrendSums, feeding the mean-recentering step.
MVG_NO_AUTOVEC inline double DetrendApplyInto(const double* s, size_t n,
                                              double slope, double mid,
                                              double* out) {
  const simd::F64x4 vslope = simd::F64x4::Broadcast(slope);
  const simd::F64x4 vmid = simd::F64x4::Broadcast(mid);
  const simd::F64x4 four = simd::F64x4::Broadcast(4.0);
  simd::F64x4 idx = simd::F64x4::Set(0.0, 1.0, 2.0, 3.0);
  simd::F64x4 acc = simd::F64x4::Zero();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const simd::F64x4 v = simd::F64x4::Load(s + i);
    const simd::F64x4 o = v - vslope * (idx - vmid);
    o.Store(out + i);
    acc = acc + o;
    idx = idx + four;
  }
  double sum = simd::ReduceAddOrdered(acc);
  for (; i < n; ++i) {
    const double o = s[i] - slope * (static_cast<double>(i) - mid);
    out[i] = o;
    sum += o;
  }
  return sum;
}

/// p[i] += c. Elementwise.
MVG_NO_AUTOVEC inline void AddScalarInto(double* p, size_t n, double c) {
  const simd::F64x4 vc = simd::F64x4::Broadcast(c);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    (simd::F64x4::Load(p + i) + vc).Store(p + i);
  }
  for (; i < n; ++i) p[i] += c;
}

/// In-place least-squares detrend (same fit + mean-keeping recenter as
/// ts/transforms.cc DetrendLinear, on the kernels above). The index sums
/// sum(i) = n(n-1)/2 and sum(i^2) = n(n-1)(2n-1)/6 are closed-form.
inline void DetrendInPlace(double* s, size_t n) {
  if (n < 3) return;
  const DetrendSums sums = AccumulateDetrendSums(s, n);
  const double dn = static_cast<double>(n);
  const double sx = 0.5 * dn * (dn - 1.0);
  const double sxx = dn * (dn - 1.0) * (2.0 * dn - 1.0) / 6.0;
  const double denom = dn * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return;
  const double a = (dn * sums.sxy - sx * sums.sy) / denom;
  const double mean = sums.sy / dn;
  const double mid = (dn - 1.0) / 2.0;
  const double out_sum = DetrendApplyInto(s, n, a, mid, s);
  AddScalarInto(s, n, mean - out_sum / dn);
}

/// Pooled scratch for one extraction pipeline: `base` holds the sanitized
/// (and optionally detrended) T0, `halved[j]` holds scale T_{j+1}, and
/// `view` lists the emitted scales in order. Buffers are reused across
/// calls, so a scratch that has warmed up to the batch's longest series
/// performs zero allocations per series.
struct MultiscaleScratch {
  Series base;
  std::vector<Series> halved;
  std::vector<const Series*> view;
};

/// Builds the multiscale views of scratch->base (already sanitized /
/// detrended by the caller) into the pooled buffers. Scale k+1 is the
/// pairwise partial-sum halving of scale k — incremental, never re-walks
/// T0. Emits exactly the scales MultiscaleRepresentation would:
/// every |T_i| = |T0|/2^i with |T_i| > tau (and >= 2), T0 itself included
/// except in AMVG mode, plus the never-empty fallback.
inline void BuildScalesInto(ScaleMode mode, size_t tau,
                            MultiscaleScratch* ts) {
  ts->view.clear();
  if (ts->base.empty()) return;
  size_t built = 0;
  if (mode != ScaleMode::kUniscale) {
    while (true) {
      // Borrow by index each round: growing `halved` reallocates it.
      const size_t cur_size =
          built == 0 ? ts->base.size() : ts->halved[built - 1].size();
      const size_t half = cur_size / 2;
      if (half <= tau || half < 2) break;
      if (ts->halved.size() <= built) ts->halved.emplace_back();
      const Series& src = built == 0 ? ts->base : ts->halved[built - 1];
      Series& next = ts->halved[built];
      next.resize(half);
      PairwiseHalveInto(src.data(), src.size(), next.data());
      ++built;
    }
  }
  // Views are collected only now, when `halved` has reached its final
  // size for this call and its elements are stable.
  if (mode != ScaleMode::kApproximateMultiscale) {
    ts->view.push_back(&ts->base);
  }
  for (size_t j = 0; j < built; ++j) ts->view.push_back(&ts->halved[j]);
  if (ts->view.empty()) ts->view.push_back(&ts->base);
}

/// Number of scales BuildScalesInto / MultiscaleRepresentation emit for a
/// series of the given length — the halving-length chain without building
/// any series. Drives the per-length feature-layout cache.
inline size_t NumScalesForLength(size_t length, ScaleMode mode, size_t tau) {
  if (length == 0) return 0;
  size_t count = mode != ScaleMode::kApproximateMultiscale ? 1 : 0;
  if (mode == ScaleMode::kUniscale) return count;
  size_t cur = length;
  while (true) {
    const size_t half = cur / 2;
    if (half <= tau || half < 2) break;
    ++count;
    cur = half;
  }
  return count == 0 ? 1 : count;
}

}  // namespace ts_kernels
}  // namespace mvg

#endif  // MVG_TS_TS_KERNELS_H_
