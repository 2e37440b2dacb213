// Vectorized special functions for the analytic exposure path.
//
// The short-range PEC sum is erf-bound: every (query, shot, term) pair costs
// four error-function evaluations (the exact rectangle integral is a product
// of erf differences), and the centroid sweep makes millions of them per
// Jacobi iteration. libm's erf is accurate to the last bit but scalar and
// branchy; the evaluator only needs ~1e-7 absolute accuracy — the analytic
// path already truncates neighbor sums at cutoff_sigmas (~1e-6 of a term's
// weight) — so a branch-free polynomial pays for itself many times over.
//
// erf_batch evaluates a contiguous argument batch 4-wide (AVX2 + FMA,
// selected at runtime; scalar fallback otherwise) using the Abramowitz &
// Stegun 7.1.26 rational approximation with an inlined branch-free exp:
//   |erf_batch(x) - erf(x)| <= 2e-7 for all finite x.
// Within one process the result for a given argument value is identical
// regardless of its position in the batch (short tails are padded and run
// through the same vector kernel), so callers that batch deterministically
// get bit-identical results for any thread count or batch split.
#pragma once

#include <cstddef>

namespace ebl {

/// Scalar companion of erf_batch (same polynomial; may differ from the
/// vector kernel in the last bits where FMA contraction differs). Use for
/// one-off evaluations; use erf_batch wherever arguments come in arrays.
double fast_erf(double x);

/// y[i] = fast_erf-accuracy erf of x[i] for i < n. Processes 4 lanes per
/// step on AVX2+FMA hardware, scalar otherwise; x and y may alias.
void erf_batch(const double* x, double* y, std::size_t n);

}  // namespace ebl
