#ifndef ACTIVEDP_MATH_VECTOR_OPS_H_
#define ACTIVEDP_MATH_VECTOR_OPS_H_

#include <vector>

namespace activedp {

/// Inner product of equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// y += alpha * x.
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

/// Euclidean norm.
double Norm2(const std::vector<double>& v);

/// Sum of elements.
double Sum(const std::vector<double>& v);

/// Arithmetic mean (0 for empty input).
double Mean(const std::vector<double>& v);

/// Sample variance (denominator n-1; 0 when n < 2).
double Variance(const std::vector<double>& v);

/// log(sum_i exp(v_i)) computed stably.
double LogSumExp(const std::vector<double>& logits);

/// Softmax of `logits` (stable); output sums to 1.
std::vector<double> Softmax(const std::vector<double>& logits);

/// Shannon entropy -sum p_i log p_i (natural log); zero entries contribute 0.
/// This is Eq. 3 of the paper.
double Entropy(const std::vector<double>& p);
double Entropy(const double* p, int n);

/// Index of the maximum element (first on ties). Requires non-empty input.
int ArgMax(const std::vector<double>& v);

/// Maximum element. Requires non-empty input.
double Max(const std::vector<double>& v);

}  // namespace activedp

#endif  // ACTIVEDP_MATH_VECTOR_OPS_H_
