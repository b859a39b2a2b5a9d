#ifndef ACTIVEDP_MATH_KERNELS_H_
#define ACTIVEDP_MATH_KERNELS_H_

namespace activedp {
namespace kernels {

/// Numeric kernels for the pipeline hot paths (dot products, axpy, softmax).
///
/// Determinism contract: every reducing kernel uses the *canonical 4-lane
/// association*
///
///   lane[l] = sum over i of term(4*i + l)      (l = 0..3, in order of i)
///   result  = ((lane[0] + lane[1]) + (lane[2] + lane[3])) + tail terms
///
/// with the tail terms (the last n % 4) added one at a time in index order.
/// Floating-point addition is not associative, so this order is part of the
/// result: every recorded FNV digest over a kernel output (determinism_test,
/// the served==offline gates, the chaos matrices, the benchmark's
/// training-label digests) was computed with it. Keep the four accumulators
/// spelled out; folding them into one running sum, letting the compiler
/// reassociate (-ffast-math) or contract mul+add into FMA changes the bits.
/// Element-wise kernels (axpy, scale) have no reduction.

/// sum_i a[i] * b[i] (canonical 4-lane association).
double DotDense(const double* a, const double* b, int n);

/// sum_k values[k] * w[indices[k]] (canonical 4-lane association). Indices
/// must be valid positions into w.
double DotSparse(const int* indices, const double* values, int nnz,
                 const double* w);

/// sum_i v[i] (canonical 4-lane association).
double Sum(const double* v, int n);

/// y[i] += alpha * x[i].
void Axpy(double alpha, const double* x, double* y, int n);

/// v[i] *= factor.
void Scale(double* v, int n, double factor);

/// In-place stable softmax: v[i] = exp(v[i] - max) / sum_j exp(v[j] - max).
/// A sequential max scan, libm exp, the canonical 4-lane Sum, then an
/// element-wise division.
void SoftmaxInPlace(double* v, int n);

}  // namespace kernels
}  // namespace activedp

#endif  // ACTIVEDP_MATH_KERNELS_H_
