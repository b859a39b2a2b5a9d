#include "active/lal.h"

#include <algorithm>
#include <cmath>

#include "math/vector_ops.h"
#include "ml/linear_model.h"
#include "util/logging.h"

namespace activedp {
namespace {

/// Dense 2-D point as a sparse vector.
SparseVector Point2d(double a, double b) {
  SparseVector v;
  v.PushBack(0, a);
  v.PushBack(1, b);
  return v;
}

struct SyntheticTask {
  std::vector<SparseVector> train_x;
  std::vector<int> train_y;
  std::vector<SparseVector> test_x;
  std::vector<int> test_y;
};

/// Two-Gaussian binary task with random separation, as in the LAL paper's
/// synthetic meta-training distribution.
SyntheticTask MakeTask(int size, Rng& rng) {
  SyntheticTask task;
  const double sep = rng.Uniform(0.8, 2.5);
  const double angle = rng.Uniform(0.0, 2.0 * 3.14159265358979);
  const double dx = std::cos(angle) * sep / 2.0;
  const double dy = std::sin(angle) * sep / 2.0;
  auto sample = [&](std::vector<SparseVector>& xs, std::vector<int>& ys) {
    for (int i = 0; i < size; ++i) {
      const int y = rng.Bernoulli(0.5) ? 1 : 0;
      const double sign = y == 1 ? 1.0 : -1.0;
      xs.push_back(
          Point2d(rng.Normal(sign * dx, 1.0), rng.Normal(sign * dy, 1.0)));
      ys.push_back(y);
    }
  };
  sample(task.train_x, task.train_y);
  sample(task.test_x, task.test_y);
  return task;
}

double TestError(const LogisticRegression& model,
                 const std::vector<SparseVector>& xs,
                 const std::vector<int>& ys) {
  int wrong = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (model.Predict(xs[i]) != ys[i]) ++wrong;
  }
  return static_cast<double>(wrong) / xs.size();
}

LogisticRegressionOptions FastLrOptions(uint64_t seed) {
  LogisticRegressionOptions options;
  options.epochs = 25;
  options.batch_size = 16;
  options.seed = seed;
  return options;
}

}  // namespace

std::vector<double> LalSampler::StateFeatures(
    const std::vector<double>& candidate_proba, double frac_labeled,
    double labeled_positive_fraction, double mean_unlabeled_pmax,
    double var_unlabeled_pmax) {
  const double p_max = Max(candidate_proba);
  double margin = p_max;
  if (candidate_proba.size() >= 2) {
    std::vector<double> sorted = candidate_proba;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    margin = sorted[0] - sorted[1];
  }
  return {p_max,
          Entropy(candidate_proba),
          margin,
          frac_labeled,
          labeled_positive_fraction,
          mean_unlabeled_pmax,
          var_unlabeled_pmax};
}

LalSampler::LalSampler(LalOptions options) : options_(options) { MetaTrain(); }

void LalSampler::MetaTrain() {
  Rng rng(options_.seed);
  std::vector<std::vector<double>> features;
  std::vector<double> gains;

  for (int ep = 0; ep < options_.episodes; ++ep) {
    SyntheticTask task = MakeTask(options_.task_size, rng);
    const int n = static_cast<int>(task.train_x.size());
    std::vector<int> labeled;
    std::vector<bool> is_labeled(n, false);
    // Seed with one example per class.
    for (int target = 0; target < 2; ++target) {
      for (int i = 0; i < n; ++i) {
        if (task.train_y[i] == target && !is_labeled[i]) {
          labeled.push_back(i);
          is_labeled[i] = true;
          break;
        }
      }
    }

    auto fit_on_labeled = [&]() -> Result<LogisticRegression> {
      std::vector<SparseVector> xs;
      std::vector<int> ys;
      for (int i : labeled) {
        xs.push_back(task.train_x[i]);
        ys.push_back(task.train_y[i]);
      }
      return LogisticRegression::FitHard(xs, ys, 2, 2,
                                         FastLrOptions(rng.Next()));
    };

    Result<LogisticRegression> model = fit_on_labeled();
    if (!model.ok()) continue;
    double error = TestError(*model, task.test_x, task.test_y);

    for (int step = 0; step < options_.steps_per_episode; ++step) {
      // Unlabeled statistics for the state features.
      std::vector<double> pmaxes;
      for (int i = 0; i < n; ++i) {
        if (!is_labeled[i]) pmaxes.push_back(Max(model->PredictProba(task.train_x[i])));
      }
      if (pmaxes.empty()) break;
      const double mean_pmax = Mean(pmaxes);
      const double var_pmax = Variance(pmaxes);
      double positive = 0.0;
      for (int i : labeled) positive += task.train_y[i];
      const double balance = positive / labeled.size();

      // Random candidate (the LAL-independent strategy).
      int candidate = -1;
      int tries = 0;
      do {
        candidate = rng.UniformInt(n);
      } while (is_labeled[candidate] && ++tries < 100);
      if (is_labeled[candidate]) break;

      const std::vector<double> phi = StateFeatures(
          model->PredictProba(task.train_x[candidate]),
          static_cast<double>(labeled.size()) / n, balance, mean_pmax,
          var_pmax);

      labeled.push_back(candidate);
      is_labeled[candidate] = true;
      model = fit_on_labeled();
      if (!model.ok()) break;
      const double new_error = TestError(*model, task.test_x, task.test_y);
      features.push_back(phi);
      gains.push_back(error - new_error);
      error = new_error;
    }
  }

  if (features.size() < 20) {
    LOG(Warning) << "LAL meta-training collected only " << features.size()
                 << " samples; sampler falls back to random selection";
    return;
  }
  RandomForestOptions forest_options;
  forest_options.num_trees = 40;
  forest_options.tree.max_depth = 7;
  Result<RandomForestRegressor> forest =
      RandomForestRegressor::Fit(features, gains, forest_options, rng);
  if (forest.ok()) {
    forest_ = std::move(*forest);
    trained_ = true;
  } else {
    LOG(Warning) << "LAL forest training failed: "
                 << forest.status().ToString();
  }
}

int LalSampler::SelectQuery(const SamplerContext& context, Rng& rng) {
  if (!trained_ || context.al_proba == nullptr) {
    return internal::RandomUnqueried(context, rng);
  }
  const ProbaTable& proba = *context.al_proba;
  const auto& queried = *context.queried;
  const int n = context.train->size();

  std::vector<double> pmaxes;
  std::vector<int> unqueried;
  for (int i = 0; i < n; ++i) {
    if (queried[i]) continue;
    unqueried.push_back(i);
    const double* p = proba.row(i);
    pmaxes.push_back(*std::max_element(p, p + proba.k()));
  }
  if (unqueried.empty()) return -1;
  const double mean_pmax = Mean(pmaxes);
  const double var_pmax = Variance(pmaxes);
  const double frac_labeled = static_cast<double>(context.num_labeled) / n;

  // Score a random pool (or everything if small).
  std::vector<int> pool;
  if (static_cast<int>(unqueried.size()) <= options_.pool_subsample) {
    pool = unqueried;
  } else {
    for (int idx :
         rng.SampleWithoutReplacement(static_cast<int>(unqueried.size()),
                                      options_.pool_subsample)) {
      pool.push_back(unqueried[idx]);
    }
  }
  int best = -1;
  double best_gain = -1e300;
  for (int i : pool) {
    const std::vector<double> phi =
        StateFeatures(proba.RowVector(i), frac_labeled,
                      context.labeled_positive_fraction, mean_pmax, var_pmax);
    const double gain = forest_.Predict(phi);
    if (gain > best_gain) {
      best_gain = gain;
      best = i;
    }
  }
  return best;
}

}  // namespace activedp
