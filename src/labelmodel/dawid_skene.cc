#include "labelmodel/dawid_skene.h"

#include <cmath>

#include "math/vector_ops.h"
#include "util/string_util.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace activedp {

int DawidSkeneModel::OutcomeIndex(int weak_label) const {
  if (weak_label == kAbstain) {
    return options_.model_abstentions ? num_classes_ : -1;
  }
  return weak_label;
}

Status DawidSkeneModel::Fit(const LabelMatrix& matrix, int num_classes) {
  return FitSemiSupervised(matrix, num_classes, {}, {});
}

Status DawidSkeneModel::FitSemiSupervised(
    const LabelMatrix& matrix, int num_classes,
    const std::vector<int>& labeled_rows,
    const std::vector<int>& labeled_values) {
  if (num_classes < 2) return Status::InvalidArgument("need >= 2 classes");
  if (matrix.num_cols() == 0)
    return Status::InvalidArgument("label matrix has no LF columns");
  if (labeled_rows.size() != labeled_values.size())
    return Status::InvalidArgument("labeled rows/values size mismatch");
  num_classes_ = num_classes;
  const int n = matrix.num_rows();
  const int m = matrix.num_cols();

  // Anchor map: row -> known label.
  std::vector<int> anchor(n, -1);
  for (size_t i = 0; i < labeled_rows.size(); ++i) {
    if (labeled_rows[i] < 0 || labeled_rows[i] >= n)
      return Status::OutOfRange("labeled row out of range");
    if (labeled_values[i] < 0 || labeled_values[i] >= num_classes)
      return Status::InvalidArgument("labeled value out of range");
    anchor[labeled_rows[i]] = labeled_values[i];
  }
  const int outcomes =
      options_.model_abstentions ? num_classes + 1 : num_classes;

  // Initialize posteriors from (soft) majority vote; anchored rows are
  // pinned to their known label.
  std::vector<std::vector<double>> q(n,
                                     std::vector<double>(num_classes, 0.0));
  for (int i = 0; i < n; ++i) {
    if (anchor[i] >= 0) {
      q[i][anchor[i]] = 1.0;
      continue;
    }
    const ActiveRowView row = matrix.ActiveRow(i);
    for (int k = 0; k < row.nnz; ++k) q[i][row.labels[k]] += 1.0;
    if (row.nnz > 0) {
      const double active = row.nnz;
      for (double& p : q[i]) p /= active;
    } else {
      for (double& p : q[i]) p = 1.0 / num_classes;
    }
  }

  // Calls visit(j, l) for every LF j with an outcome l on row i, in
  // ascending j: the LFs that fire and, when abstentions are modelled, the
  // ones that abstain (outcome num_classes).
  const auto for_each_outcome = [&](int i, const auto& visit) {
    const ActiveRowView row = matrix.ActiveRow(i);
    if (!options_.model_abstentions) {
      for (int k = 0; k < row.nnz; ++k) visit(row.cols[k], row.labels[k]);
      return;
    }
    int k = 0;
    for (int j = 0; j < m; ++j) {
      if (k < row.nnz && row.cols[k] == j) {
        visit(j, row.labels[k++]);
      } else {
        visit(j, num_classes);
      }
    }
  };

  TraceSpan span("dawid_skene.fit");
  span.AddArg("rows", n);
  span.AddArg("lfs", m);

  priors_.assign(num_classes, 1.0 / num_classes);
  confusions_.assign(m, Matrix(num_classes, outcomes));
  const SpinPairMoments& moments = matrix.PairMoments();
  std::vector<Matrix> counts(m, Matrix(num_classes, outcomes));
  double prev_loglik = -1e300;

  for (iterations_run_ = 0; iterations_run_ < options_.max_iterations;
       ++iterations_run_) {
    const Status limit = options_.limits.Check("dawid_skene.fit");
    if (!limit.ok()) {
      return Status(limit.code(),
                    "dawid-skene: " + limit.message() + " after " +
                        std::to_string(iterations_run_) + " of " +
                        std::to_string(options_.max_iterations) +
                        " EM iterations");
    }
    // M-step: priors and outcome distributions from current posteriors.
    std::vector<double> prior_counts(num_classes, options_.smoothing);
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < num_classes; ++c) prior_counts[c] += q[i][c];
    }
    const double prior_total = Sum(prior_counts);
    for (int c = 0; c < num_classes; ++c) {
      priors_[c] = prior_counts[c] / prior_total;
    }
    // Rows are scattered into every LF's counts at once, in ascending row
    // order, so each cell sums the same terms in the same order as a sweep
    // down one LF's column would.
    for (int j = 0; j < m; ++j) {
      const double diagonal =
          options_.diagonal_prior +
          options_.diagonal_prior_fraction * moments.Active(j);
      counts[j] = Matrix(num_classes, outcomes, options_.smoothing);
      for (int c = 0; c < num_classes; ++c) counts[j](c, c) += diagonal;
    }
    for (int i = 0; i < n; ++i) {
      for_each_outcome(i, [&](int j, int l) {
        for (int c = 0; c < num_classes; ++c) counts[j](c, l) += q[i][c];
      });
    }
    for (int j = 0; j < m; ++j) {
      for (int c = 0; c < num_classes; ++c) {
        double row_total = 0.0;
        for (int l = 0; l < outcomes; ++l) row_total += counts[j](c, l);
        for (int l = 0; l < outcomes; ++l) {
          confusions_[j](c, l) = counts[j](c, l) / row_total;
        }
      }
    }

    // E-step: posteriors from parameters; track the data log-likelihood.
    double loglik = 0.0;
    std::vector<double> log_post(num_classes);
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < num_classes; ++c) {
        log_post[c] = std::log(priors_[c]);
      }
      for_each_outcome(i, [&](int j, int l) {
        for (int c = 0; c < num_classes; ++c) {
          log_post[c] += std::log(confusions_[j](c, l));
        }
      });
      const double lse = LogSumExp(log_post);
      loglik += lse;
      if (anchor[i] >= 0) continue;  // clamped posterior
      for (int c = 0; c < num_classes; ++c) {
        q[i][c] = std::exp(log_post[c] - lse);
      }
    }
    if (std::fabs(loglik - prev_loglik) <
        options_.tolerance * (std::fabs(loglik) + 1.0)) {
      break;
    }
    prev_loglik = loglik;
  }
  MetricsRegistry::Global()
      .counter("dawid_skene.em_iterations")
      .Increment(iterations_run_);
  span.AddArg("em_iterations", iterations_run_);
  if (iterations_run_ >= options_.max_iterations) {
    TraceInstant("convergence", "dawid_skene.fit",
                 "EM hit max_iterations (" +
                     std::to_string(options_.max_iterations) + ")");
  }
  return Status::Ok();
}

Result<std::string> DawidSkeneModel::SerializeParams() const {
  if (num_classes_ <= 0)
    return Status::FailedPrecondition("Fit before SerializeParams");
  const int outcomes = num_classes_ + (options_.model_abstentions ? 1 : 0);
  std::string out = std::to_string(num_classes_);
  out += ' ';
  out += std::to_string(confusions_.size());
  out += ' ';
  out += options_.model_abstentions ? '1' : '0';
  for (double p : priors_) {
    out += ' ';
    out += FormatExactDouble(p);
  }
  for (const Matrix& confusion : confusions_) {
    for (int c = 0; c < num_classes_; ++c) {
      for (int l = 0; l < outcomes; ++l) {
        out += ' ';
        out += FormatExactDouble(confusion(c, l));
      }
    }
  }
  return out;
}

Status DawidSkeneModel::RestoreParams(const std::string& params) {
  const std::vector<std::string> tokens = SplitWhitespace(params);
  int num_classes = 0;
  int m = 0;
  int abst = 0;
  if (tokens.size() < 3 || !ParseInt(tokens[0], &num_classes) ||
      num_classes < 2 || !ParseInt(tokens[1], &m) || m <= 0 ||
      !ParseInt(tokens[2], &abst) || (abst != 0 && abst != 1)) {
    return Status::InvalidArgument("dawid-skene params: bad header");
  }
  const int outcomes = num_classes + abst;
  const size_t expected = 3 + static_cast<size_t>(num_classes) +
                          static_cast<size_t>(m) * num_classes * outcomes;
  if (tokens.size() != expected) {
    return Status::InvalidArgument(
        "dawid-skene params: expected " + std::to_string(expected) +
        " tokens, got " + std::to_string(tokens.size()));
  }
  size_t pos = 3;
  std::vector<double> priors(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    if (!ParseDouble(tokens[pos], &priors[c]) || priors[c] < 0.0) {
      return Status::InvalidArgument("dawid-skene params: bad prior '" +
                                     tokens[pos] + "'");
    }
    ++pos;
  }
  std::vector<Matrix> confusions(m, Matrix(num_classes, outcomes));
  for (int j = 0; j < m; ++j) {
    for (int c = 0; c < num_classes; ++c) {
      for (int l = 0; l < outcomes; ++l) {
        double cell = 0.0;
        if (!ParseDouble(tokens[pos], &cell) || cell < 0.0) {
          return Status::InvalidArgument(
              "dawid-skene params: bad confusion cell '" + tokens[pos] + "'");
        }
        confusions[j](c, l) = cell;
        ++pos;
      }
    }
  }
  num_classes_ = num_classes;
  priors_ = std::move(priors);
  confusions_ = std::move(confusions);
  options_.model_abstentions = (abst == 1);
  return Status::Ok();
}

Result<std::vector<double>> DawidSkeneModel::PredictProba(
    const std::vector<int>& weak_labels) const {
  if (num_classes_ <= 0)
    return Status::FailedPrecondition("Fit before PredictProba");
  if (weak_labels.size() != confusions_.size()) {
    return Status::InvalidArgument(
        "weak-label row has " + std::to_string(weak_labels.size()) +
        " entries, model was fit on " + std::to_string(confusions_.size()) +
        " LFs");
  }
  std::vector<double> log_post(num_classes_);
  for (int c = 0; c < num_classes_; ++c) log_post[c] = std::log(priors_[c]);
  for (size_t j = 0; j < weak_labels.size(); ++j) {
    const int l = OutcomeIndex(weak_labels[j]);
    if (l < 0) continue;
    for (int c = 0; c < num_classes_; ++c) {
      log_post[c] += std::log(confusions_[j](c, l));
    }
  }
  return Softmax(log_post);
}

}  // namespace activedp
