#include "core/baselines.h"

#include <algorithm>
#include <cmath>

#include "math/vector_ops.h"
#include "util/check.h"

namespace activedp {

// ---------------------------------------------------------------- Nemo ----

NemoFramework::NemoFramework(const FrameworkContext& context,
                             BaselineOptions options)
    : context_(&context),
      options_(options),
      user_(context.split->train, options.user),
      sampler_(MakeSampler(SamplerType::kSeu, options.seed ^ 0x77)),
      rng_(options.seed),
      train_matrix_(context.split->train.size()),
      queried_(context.split->train.size(), false),
      label_model_(MakeLabelModel(options.label_model_type)) {}

Status NemoFramework::Step() {
  SamplerContext ctx;
  ctx.train = &context_->split->train;
  ctx.lm_proba = label_model_ready_ ? &lm_proba_train_ : nullptr;
  ctx.lm_active = label_model_ready_ ? &lm_active_train_ : nullptr;
  ctx.queried = &queried_;
  ctx.num_labeled = 0;
  ctx.lf_space = &user_.lf_space();

  const int query = sampler_->SelectQuery(ctx, rng_);
  if (query < 0)
    return Status::FailedPrecondition("all training instances queried");
  queried_[query] = true;

  std::optional<LfCandidate> response = user_.CreateLf(query);
  if (!response.has_value()) return Status::Ok();
  lfs_.push_back(response->lf);
  train_matrix_.AddColumn(ApplyLf(*response->lf, context_->split->train));

  const Status fit = label_model_->Fit(train_matrix_, context_->num_classes);
  if (!fit.ok()) return Status::Ok();
  // Treat an unusable model like a failed fit: no labels this round.
  const Status predicted = label_model_->PredictProbaTable(
      train_matrix_, context_->num_classes, &lm_proba_train_);
  label_model_ready_ = predicted.ok();
  lm_active_train_.assign(train_matrix_.num_rows(), false);
  for (int i = 0; i < train_matrix_.num_rows(); ++i) {
    lm_active_train_[i] = train_matrix_.AnyActive(i);
  }
  return Status::Ok();
}

std::vector<std::vector<double>> NemoFramework::CurrentTrainingLabels() {
  const int n = context_->split->train.size();
  std::vector<std::vector<double>> soft(n);
  if (!label_model_ready_) return soft;
  for (int i = 0; i < n; ++i) {
    if (lm_active_train_[i]) soft[i] = lm_proba_train_.RowVector(i);
  }
  return soft;
}

// ----------------------------------------------------------------- IWS ----

namespace {
constexpr int kIwsSubsampleRows = 200;
constexpr int kIwsMinVerifiedForModel = 6;
constexpr double kIwsExploreProbability = 0.1;
constexpr double kIwsPredictedAccurateThreshold = 0.8;
constexpr int kIwsMaxFinalLfs = 100;
constexpr double kIwsMinCandidateCoverage = 0.01;
// Near-trivial rules (a stump covering most of the data) are not plausible
// LF candidates — IWS's real pools are n-grams with modest coverage.
constexpr double kIwsMaxCandidateCoverage = 0.5;
}  // namespace

IwsFramework::IwsFramework(const FrameworkContext& context,
                           BaselineOptions options)
    : context_(&context),
      options_(options),
      user_(context.split->train, options.user),
      rng_(options.seed),
      label_model_(MakeLabelModel(options.label_model_type)) {
  pool_ = user_.lf_space().AllCandidates(kIwsMinCandidateCoverage);
  std::erase_if(pool_, [](const LfCandidate& c) {
    return c.coverage > kIwsMaxCandidateCoverage;
  });
  const int n = context.split->train.size();
  const int s = std::min(kIwsSubsampleRows, n);
  subsample_rows_ = rng_.SampleWithoutReplacement(n, s);
  pool_outputs_.reserve(pool_.size());
  for (const auto& candidate : pool_) {
    std::vector<int8_t> outputs(s);
    for (int i = 0; i < s; ++i) {
      outputs[i] = static_cast<int8_t>(candidate.lf->Apply(
          context.split->train.example(subsample_rows_[i])));
    }
    pool_outputs_.push_back(std::move(outputs));
  }
  is_verified_.assign(pool_.size(), false);
}

std::vector<double> IwsFramework::CandidateFeatures(int candidate_index) const {
  const auto& outputs = pool_outputs_[candidate_index];
  const int s = static_cast<int>(outputs.size());

  // Majority vote of verified-accurate LFs per subsample row.
  // (Recomputed per call; pools and subsamples are small.)
  std::vector<int> good_vote(s, kAbstain);
  {
    std::vector<std::vector<double>> votes(
        s, std::vector<double>(context_->num_classes, 0.0));
    std::vector<bool> any(s, false);
    for (size_t v = 0; v < verified_.size(); ++v) {
      if (!verified_label_[v]) continue;
      const auto& vout = pool_outputs_[verified_[v]];
      for (int i = 0; i < s; ++i) {
        if (vout[i] == kAbstain) continue;
        votes[i][vout[i]] += 1.0;
        any[i] = true;
      }
    }
    for (int i = 0; i < s; ++i) {
      if (any[i]) good_vote[i] = ArgMax(votes[i]);
    }
  }

  double fires = 0.0, overlap = 0.0, agree = 0.0;
  for (int i = 0; i < s; ++i) {
    if (outputs[i] == kAbstain) continue;
    fires += 1.0;
    if (good_vote[i] != kAbstain) {
      overlap += 1.0;
      if (good_vote[i] == outputs[i]) agree += 1.0;
    }
  }
  const double agreement = overlap > 0.0 ? agree / overlap : 0.5;
  const double overlap_frac = fires > 0.0 ? overlap / fires : 0.0;
  // Class-symmetric features only: using the vote class as a feature makes
  // the acquisition model lock onto whichever class got verified first.
  return {pool_[candidate_index].coverage, agreement, overlap_frac};
}

std::vector<double> IwsFramework::PredictAccurate() const {
  std::vector<double> p(pool_.size(), 0.5);
  int positives = 0, negatives = 0;
  for (bool label : verified_label_) {
    label ? ++positives : ++negatives;
  }
  if (static_cast<int>(verified_.size()) < kIwsMinVerifiedForModel ||
      positives == 0 || negatives == 0) {
    return p;
  }

  std::vector<SparseVector> x;
  std::vector<int> y;
  for (size_t v = 0; v < verified_.size(); ++v) {
    const std::vector<double> features = CandidateFeatures(verified_[v]);
    SparseVector sv;
    for (size_t j = 0; j < features.size(); ++j) {
      sv.PushBack(static_cast<int>(j), features[j]);
    }
    x.push_back(std::move(sv));
    y.push_back(verified_label_[v] ? 1 : 0);
  }
  LogisticRegressionOptions lr = options_.al_lr;
  lr.seed = options_.seed ^ 0x33;
  Result<LogisticRegression> model =
      LogisticRegression::FitHard(x, y, 2, 3, lr);
  if (!model.ok()) return p;

  for (size_t c = 0; c < pool_.size(); ++c) {
    if (is_verified_[c]) continue;
    const std::vector<double> features = CandidateFeatures(static_cast<int>(c));
    SparseVector sv;
    for (size_t j = 0; j < features.size(); ++j) {
      sv.PushBack(static_cast<int>(j), features[j]);
    }
    p[c] = model->PredictProba(sv)[1];
  }
  return p;
}

Status IwsFramework::Step() {
  // Candidates not yet verified.
  std::vector<int> unverified;
  for (size_t c = 0; c < pool_.size(); ++c) {
    if (!is_verified_[c]) unverified.push_back(static_cast<int>(c));
  }
  if (unverified.empty())
    return Status::FailedPrecondition("candidate pool exhausted");

  // Until the acquisition model has signal (or with the ε-greedy explore
  // probability), sample uniformly — the LSE posterior is uninformative
  // before any verifications.
  int positives = 0, negatives = 0;
  for (bool label : verified_label_) {
    label ? ++positives : ++negatives;
  }
  const bool model_ready =
      static_cast<int>(verified_.size()) >= kIwsMinVerifiedForModel &&
      positives > 0 && negatives > 0;
  int chosen;
  if (!model_ready || rng_.Bernoulli(kIwsExploreProbability)) {
    chosen = unverified[rng_.UniformInt(static_cast<int>(unverified.size()))];
  } else {
    const std::vector<double> p = PredictAccurate();
    chosen = unverified.front();
    double best = -1.0;
    for (int c : unverified) {
      const double score = p[c] * pool_[c].coverage;
      if (score > best) {
        best = score;
        chosen = c;
      }
    }
  }

  is_verified_[chosen] = true;
  verified_.push_back(chosen);
  verified_label_.push_back(user_.VerifyLf(pool_[chosen]));
  return Status::Ok();
}

std::vector<std::vector<double>> IwsFramework::CurrentTrainingLabels() {
  const int n = context_->split->train.size();
  std::vector<std::vector<double>> soft(n);

  // IWS-LSE-a final set: all candidates the system predicts accurate —
  // the verified-accurate ones plus confidently-predicted unverified ones.
  // Ranked per vote class and interleaved so the cap cannot collapse the
  // set onto a single class.
  std::vector<std::vector<std::pair<double, int>>> ranked(
      context_->num_classes);  // per class: (confidence, pool index)
  for (size_t v = 0; v < verified_.size(); ++v) {
    if (verified_label_[v]) {
      ranked[pool_[verified_[v]].lf->label()].emplace_back(2.0, verified_[v]);
    }
  }
  const std::vector<double> p = PredictAccurate();
  for (size_t c = 0; c < pool_.size(); ++c) {
    if (!is_verified_[c] && p[c] > kIwsPredictedAccurateThreshold) {
      ranked[pool_[c].lf->label()].emplace_back(p[c], static_cast<int>(c));
    }
  }
  std::vector<LfPtr> final_lfs;
  for (auto& per_class : ranked) {
    std::sort(per_class.begin(), per_class.end(), std::greater<>());
  }
  for (int rank = 0; static_cast<int>(final_lfs.size()) < kIwsMaxFinalLfs;
       ++rank) {
    bool any = false;
    for (const auto& per_class : ranked) {
      if (rank < static_cast<int>(per_class.size())) {
        final_lfs.push_back(pool_[per_class[rank].second].lf);
        any = true;
      }
    }
    if (!any) break;
  }
  if (final_lfs.empty()) return soft;
  const LabelMatrix matrix = ApplyLfs(final_lfs, context_->split->train);
  if (!label_model_->Fit(matrix, context_->num_classes).ok()) return soft;
  for (int i = 0; i < n; ++i) {
    if (!matrix.AnyActive(i)) continue;
    Result<std::vector<double>> p = label_model_->PredictProbaSparse(
        matrix.ActiveRow(i), matrix.num_cols());
    if (!p.ok()) return std::vector<std::vector<double>>(n);
    soft[i] = std::move(*p);
  }
  return soft;
}

// ----------------------------------------------------------------- RLF ----

RlfFramework::RlfFramework(const FrameworkContext& context,
                           BaselineOptions options)
    : context_(&context),
      options_(options),
      user_(context.split->train, options.user),
      rng_(options.seed),
      train_matrix_(context.split->train.size()),
      lf_queried_(context.split->train.size(), false),
      labeled_(context.split->train.size(), false),
      label_model_(MakeLabelModel(options.label_model_type)) {}

void RlfFramework::ReviseRow(int row, int label) {
  // Relabel keeps the row's shape, so the view stays valid.
  const ActiveRowView entries = train_matrix_.ActiveRow(row);
  for (int e = 0; e < entries.nnz; ++e) {
    train_matrix_.Relabel(row, entries.cols[e], label);
  }
}

Status RlfFramework::Step() {
  const int n = context_->split->train.size();

  // (a) Grow Λ_t with one user-designed LF, mirroring ActiveDP's creation
  // process (supplied to RLF per the protocol, §4.1.3). Query instances for
  // creation are drawn at random.
  std::vector<int> lf_pool;
  for (int i = 0; i < n; ++i) {
    if (!lf_queried_[i]) lf_pool.push_back(i);
  }
  if (!lf_pool.empty()) {
    const int q = lf_pool[rng_.UniformInt(static_cast<int>(lf_pool.size()))];
    lf_queried_[q] = true;
    std::optional<LfCandidate> response = user_.CreateLf(q);
    if (response.has_value()) {
      lfs_.push_back(response->lf);
      std::vector<int8_t> column =
          ApplyLf(*response->lf, context_->split->train);
      // Keep the new column consistent with already-corrected rows.
      for (size_t r = 0; r < labeled_rows_.size(); ++r) {
        const int row = labeled_rows_[r];
        if (column[row] != kAbstain) {
          column[row] = static_cast<int8_t>(labeled_values_[r]);
        }
      }
      train_matrix_.AddColumn(std::move(column));
    }
  }

  // (b) The iteration's human interaction: label the instance where the
  // label model is most uncertain, then correct LF outputs there.
  int target = -1;
  if (label_model_ready_) {
    double best = -1.0;
    for (int i = 0; i < n; ++i) {
      if (labeled_[i]) continue;
      const double entropy = lm_proba_train_.entropy(i);
      if (entropy > best) {
        best = entropy;
        target = i;
      }
    }
  } else {
    std::vector<int> unlabeled;
    for (int i = 0; i < n; ++i) {
      if (!labeled_[i]) unlabeled.push_back(i);
    }
    if (!unlabeled.empty()) {
      target = unlabeled[rng_.UniformInt(static_cast<int>(unlabeled.size()))];
    }
  }
  if (target < 0)
    return Status::FailedPrecondition("all training instances labelled");
  labeled_[target] = true;
  const int truth = user_.LabelInstance(target);
  labeled_rows_.push_back(target);
  labeled_values_.push_back(truth);
  ReviseRow(target, truth);

  // (c) Retrain the label model on the revised matrix.
  if (train_matrix_.num_cols() == 0) return Status::Ok();
  if (!label_model_->Fit(train_matrix_, context_->num_classes).ok()) {
    return Status::Ok();
  }
  const Status predicted = label_model_->PredictProbaTable(
      train_matrix_, context_->num_classes, &lm_proba_train_);
  label_model_ready_ = predicted.ok();
  return Status::Ok();
}

std::vector<std::vector<double>> RlfFramework::CurrentTrainingLabels() {
  // RLF "only leverages label functions to generate training labels"
  // (paper Table 1 / §1): the expert labels act exclusively through the
  // revised LF outputs, so prediction is label-model-only on covered rows.
  const int n = context_->split->train.size();
  std::vector<std::vector<double>> soft(n);
  if (label_model_ready_) {
    for (int i = 0; i < n; ++i) {
      if (train_matrix_.AnyActive(i)) soft[i] = lm_proba_train_.RowVector(i);
    }
  }
  return soft;
}

// ------------------------------------------------------- Active WeaSuL ----

ActiveWeasulFramework::ActiveWeasulFramework(const FrameworkContext& context,
                                             BaselineOptions options)
    : context_(&context),
      options_(options),
      user_(context.split->train, options.user),
      rng_(options.seed),
      train_matrix_(context.split->train.size()),
      lf_queried_(context.split->train.size(), false),
      labeled_(context.split->train.size(), false) {}

Status ActiveWeasulFramework::Step() {
  const int n = context_->split->train.size();

  // (a) Grow Λ_t with one user-designed LF (supplied by the protocol, as
  // for Revising LF).
  std::vector<int> lf_pool;
  for (int i = 0; i < n; ++i) {
    if (!lf_queried_[i]) lf_pool.push_back(i);
  }
  if (!lf_pool.empty()) {
    const int q = lf_pool[rng_.UniformInt(static_cast<int>(lf_pool.size()))];
    lf_queried_[q] = true;
    std::optional<LfCandidate> response = user_.CreateLf(q);
    if (response.has_value()) {
      lfs_.push_back(response->lf);
      train_matrix_.AddColumn(ApplyLf(*response->lf, context_->split->train));
    }
  }

  // (b) The iteration's human interaction: label the instance the label
  // model is most uncertain about. (Active WeaSuL's maxKL heuristic; we use
  // the entropy of the posterior, which coincides for binary tasks.)
  int target = -1;
  if (label_model_ready_) {
    double best = -1.0;
    for (int i = 0; i < n; ++i) {
      if (labeled_[i]) continue;
      const double entropy = lm_proba_train_.entropy(i);
      if (entropy > best) {
        best = entropy;
        target = i;
      }
    }
  } else {
    std::vector<int> unlabeled;
    for (int i = 0; i < n; ++i) {
      if (!labeled_[i]) unlabeled.push_back(i);
    }
    if (!unlabeled.empty()) {
      target = unlabeled[rng_.UniformInt(static_cast<int>(unlabeled.size()))];
    }
  }
  if (target < 0)
    return Status::FailedPrecondition("all training instances labelled");
  labeled_[target] = true;
  labeled_rows_.push_back(target);
  labeled_values_.push_back(user_.LabelInstance(target));

  // (c) Refit the label model with the expert labels steering EM.
  if (train_matrix_.num_cols() == 0) return Status::Ok();
  if (!label_model_
           .FitSemiSupervised(train_matrix_, context_->num_classes,
                              labeled_rows_, labeled_values_)
           .ok()) {
    return Status::Ok();
  }
  const Status predicted = label_model_.PredictProbaTable(
      train_matrix_, context_->num_classes, &lm_proba_train_);
  label_model_ready_ = predicted.ok();
  return Status::Ok();
}

std::vector<std::vector<double>>
ActiveWeasulFramework::CurrentTrainingLabels() {
  // LF-only prediction (Table 1): label-model posteriors on covered rows.
  const int n = context_->split->train.size();
  std::vector<std::vector<double>> soft(n);
  if (label_model_ready_) {
    for (int i = 0; i < n; ++i) {
      if (train_matrix_.AnyActive(i)) soft[i] = lm_proba_train_.RowVector(i);
    }
  }
  return soft;
}

// ------------------------------------------------------------------ US ----

UncertaintyFramework::UncertaintyFramework(const FrameworkContext& context,
                                           BaselineOptions options)
    : context_(&context),
      options_(options),
      user_(context.split->train, options.user),
      rng_(options.seed),
      queried_(context.split->train.size(), false) {}

void UncertaintyFramework::Retrain() {
  bool has_two_classes = false;
  for (size_t i = 1; i < labels_.size(); ++i) {
    if (labels_[i] != labels_[0]) {
      has_two_classes = true;
      break;
    }
  }
  if (!has_two_classes) return;
  std::vector<SparseVector> x;
  for (int row : labeled_rows_) x.push_back(context_->train_features[row]);
  LogisticRegressionOptions lr = options_.al_lr;
  lr.seed = options_.seed ^ 0x55;
  Result<LogisticRegression> model = LogisticRegression::FitHard(
      x, labels_, context_->num_classes, context_->feature_dim, lr);
  if (!model.ok()) return;
  model_ = std::move(*model);
  model_->PredictProbaTable(context_->train_features, &proba_train_);
}

Status UncertaintyFramework::Step() {
  const int n = context_->split->train.size();
  int target = -1;
  if (model_.has_value()) {
    double best = -1.0;
    for (int i = 0; i < n; ++i) {
      if (queried_[i]) continue;
      const double entropy = proba_train_.entropy(i);
      if (entropy > best) {
        best = entropy;
        target = i;
      }
    }
  } else {
    std::vector<int> pool;
    for (int i = 0; i < n; ++i) {
      if (!queried_[i]) pool.push_back(i);
    }
    if (!pool.empty()) {
      target = pool[rng_.UniformInt(static_cast<int>(pool.size()))];
    }
  }
  if (target < 0)
    return Status::FailedPrecondition("all training instances labelled");
  queried_[target] = true;
  labeled_rows_.push_back(target);
  labels_.push_back(user_.LabelInstance(target));
  Retrain();
  return Status::Ok();
}

std::vector<std::vector<double>> UncertaintyFramework::CurrentTrainingLabels() {
  const int n = context_->split->train.size();
  std::vector<std::vector<double>> soft(n);
  for (size_t r = 0; r < labeled_rows_.size(); ++r) {
    std::vector<double> one_hot(context_->num_classes, 0.0);
    one_hot[labels_[r]] = 1.0;
    soft[labeled_rows_[r]] = std::move(one_hot);
  }
  return soft;
}

}  // namespace activedp
