#include "ml/linear_model.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "math/kernels.h"
#include "math/vector_ops.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace activedp {

Result<LogisticRegression> LogisticRegression::Fit(
    const std::vector<SparseVector>& x,
    const std::vector<std::vector<double>>& y, int num_classes, int dim,
    const LogisticRegressionOptions& options,
    const std::vector<double>& sample_weights) {
  if (x.empty()) return Status::InvalidArgument("no training examples");
  if (x.size() != y.size())
    return Status::InvalidArgument("x/y size mismatch");
  if (num_classes < 2) return Status::InvalidArgument("need >= 2 classes");
  if (!sample_weights.empty() && sample_weights.size() != x.size())
    return Status::InvalidArgument("sample_weights size mismatch");

  TraceSpan span("lr.fit");
  span.AddArg("n", static_cast<int64_t>(x.size()));

  const FaultKind fault = CheckFault(
      "lr.fit", {FaultKind::kNan, FaultKind::kNoConverge, FaultKind::kError});
  if (fault == FaultKind::kError) {
    return Status::Internal("injected fault at lr.fit");
  }

  const int n = static_cast<int>(x.size());
  const int w_cols = dim + 1;  // trailing bias column
  LogisticRegression model;
  model.num_classes_ = num_classes;
  model.dim_ = dim;
  model.weights_ = Matrix(num_classes, w_cols);
  if (options.init_weights.rows() == num_classes &&
      options.init_weights.cols() == w_cols) {
    // Warm start from a previous fit's weights; the finite guard below still
    // vets the final weights, so a poisoned warm start cannot leak through.
    model.weights_ = options.init_weights;
  }

  // Adam state.
  Matrix m(num_classes, w_cols);
  Matrix v(num_classes, w_cols);
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  int step = 0;

  Rng rng(options.seed);
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);

  Matrix grad(num_classes, w_cols);
  double epoch_max_update = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const Status limit = options.limits.Check("lr.fit");
    if (!limit.ok()) {
      return Status(limit.code(),
                    "logistic regression: " + limit.message() + " after " +
                        std::to_string(epoch) + " of " +
                        std::to_string(options.epochs) + " epochs (" +
                        std::to_string(step) + " Adam steps)");
    }
    epoch_max_update = 0.0;
    rng.Shuffle(order);
    for (int begin = 0; begin < n; begin += options.batch_size) {
      const int end = std::min(n, begin + options.batch_size);
      grad.Fill(0.0);
      double weight_total = 0.0;
      for (int idx = begin; idx < end; ++idx) {
        const int i = order[idx];
        const double sw = sample_weights.empty() ? 1.0 : sample_weights[i];
        if (sw == 0.0) continue;
        weight_total += sw;
        const std::vector<double> p = model.PredictProba(x[i]);
        for (int c = 0; c < num_classes; ++c) {
          const double delta = sw * (p[c] - y[i][c]);
          if (delta == 0.0) continue;
          double* g = grad.RowPtr(c);
          for (int k = 0; k < x[i].nnz(); ++k) {
            g[x[i].indices[k]] += delta * x[i].values[k];
          }
          g[dim] += delta;  // bias
        }
      }
      if (weight_total == 0.0) continue;
      // L2 regularization on weights (not bias), scaled per batch.
      for (int c = 0; c < num_classes; ++c) {
        double* g = grad.RowPtr(c);
        const double* w = model.weights_.RowPtr(c);
        for (int k = 0; k < dim; ++k) {
          g[k] = g[k] / weight_total + options.l2 * w[k];
        }
        g[dim] /= weight_total;
      }
      // Adam update.
      ++step;
      const double bc1 = 1.0 - std::pow(beta1, step);
      const double bc2 = 1.0 - std::pow(beta2, step);
      for (int c = 0; c < num_classes; ++c) {
        double* w = model.weights_.RowPtr(c);
        double* mc = m.RowPtr(c);
        double* vc = v.RowPtr(c);
        const double* g = grad.RowPtr(c);
        for (int k = 0; k < w_cols; ++k) {
          mc[k] = beta1 * mc[k] + (1.0 - beta1) * g[k];
          vc[k] = beta2 * vc[k] + (1.0 - beta2) * g[k] * g[k];
          const double mhat = mc[k] / bc1;
          const double vhat = vc[k] / bc2;
          const double update =
              options.learning_rate * mhat / (std::sqrt(vhat) + eps);
          w[k] -= update;
          epoch_max_update = std::max(epoch_max_update, std::fabs(update));
        }
      }
    }
  }

  if (fault == FaultKind::kNan && model.weights_.rows() > 0) {
    model.weights_(0, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  // Finite guard: a diverged fit surfaces as Status, never as a model that
  // emits NaN probabilities into the pipeline.
  bool finite = true;
  for (int c = 0; c < num_classes && finite; ++c) {
    const double* w = model.weights_.RowPtr(c);
    for (int k = 0; k < w_cols; ++k) {
      if (!std::isfinite(w[k])) {
        finite = false;
        break;
      }
    }
  }
  MetricsRegistry::Global().counter("lr.epochs").Increment(options.epochs);
  span.AddArg("adam_steps", step);
  model.report_.iterations = step;
  model.report_.final_delta = epoch_max_update;
  model.report_.finite = finite;
  model.report_.converged =
      finite && epoch_max_update <= options.convergence_tolerance;
  if (!model.report_.converged) {
    TraceInstant("convergence", "lr.fit",
                 finite ? "update above tolerance after " +
                              std::to_string(step) + " Adam steps"
                        : "non-finite weights");
  }
  if (!finite) {
    return Status::Internal(
        "logistic regression diverged: non-finite weights after " +
        std::to_string(step) + " steps");
  }
  if (fault == FaultKind::kNoConverge) {
    return Status::Internal(
        "logistic regression did not converge (injected fault at lr.fit)");
  }
  return model;
}

Result<LogisticRegression> LogisticRegression::FromWeights(int num_classes,
                                                           int dim,
                                                           Matrix weights) {
  if (num_classes < 2 || dim <= 0) {
    return Status::InvalidArgument("FromWeights: bad shape (" +
                                   std::to_string(num_classes) + " classes, " +
                                   std::to_string(dim) + " features)");
  }
  if (weights.rows() != num_classes || weights.cols() != dim + 1) {
    return Status::InvalidArgument(
        "FromWeights: weight matrix is " + std::to_string(weights.rows()) +
        "x" + std::to_string(weights.cols()) + ", expected " +
        std::to_string(num_classes) + "x" + std::to_string(dim + 1));
  }
  LogisticRegression model;
  model.num_classes_ = num_classes;
  model.dim_ = dim;
  model.weights_ = std::move(weights);
  return model;
}

Result<LogisticRegression> LogisticRegression::FitHard(
    const std::vector<SparseVector>& x, const std::vector<int>& labels,
    int num_classes, int dim, const LogisticRegressionOptions& options) {
  if (x.size() != labels.size())
    return Status::InvalidArgument("x/labels size mismatch");
  std::vector<std::vector<double>> soft(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0 || labels[i] >= num_classes)
      return Status::InvalidArgument("label out of range");
    soft[i].assign(num_classes, 0.0);
    soft[i][labels[i]] = 1.0;
  }
  return Fit(x, soft, num_classes, dim, options);
}

std::vector<double> LogisticRegression::Logits(const SparseVector& x) const {
  std::vector<double> logits(num_classes_);
  LogitsInto(x, logits.data());
  return logits;
}

void LogisticRegression::LogitsInto(const SparseVector& x, double* out) const {
  const int nnz = x.nnz();
#ifndef NDEBUG
  for (int k = 0; k < nnz; ++k) DCHECK(x.indices[k] < dim_);
#endif
  for (int c = 0; c < num_classes_; ++c) {
    const double* w = weights_.RowPtr(c);
    out[c] = w[dim_] +  // bias
             kernels::DotSparse(x.indices.data(), x.values.data(), nnz, w);
  }
}

std::vector<double> LogisticRegression::PredictProba(
    const SparseVector& x) const {
  std::vector<double> proba(num_classes_);
  PredictProbaInto(x, proba.data());
  return proba;
}

void LogisticRegression::PredictProbaInto(const SparseVector& x,
                                          double* out) const {
  CHECK_GT(num_classes_, 0);
  LogitsInto(x, out);
  kernels::SoftmaxInPlace(out, num_classes_);
}

void LogisticRegression::PredictProbaTable(const std::vector<SparseVector>& x,
                                           ProbaTable* table) const {
  table->Resize(static_cast<int>(x.size()), num_classes_);
  for (size_t i = 0; i < x.size(); ++i) {
    PredictProbaInto(x[i], table->mutable_row(static_cast<int>(i)));
  }
  table->Seal();
}

int LogisticRegression::Predict(const SparseVector& x) const {
  return ArgMax(Logits(x));
}

}  // namespace activedp
