#include "core/activedp.h"

#include <numeric>

#include "labelmodel/majority_vote.h"
#include "ml/metrics.h"

#include "util/check.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/numeric_guard.h"
#include "util/trace.h"

namespace activedp {

ActiveDp::ActiveDp(const FrameworkContext& context, ActiveDpOptions options)
    : context_(&context),
      options_(options),
      user_(context.split->train, options.user),
      sampler_(MakeSampler(options.sampler_type, options.seed ^ 0x5a5a)),
      rng_(options.seed),
      train_matrix_(context.split->train.size()),
      valid_matrix_(context.split->valid.size()),
      queried_(context.split->train.size(), false),
      retrier_(options.policy.retry, &retry_log_) {
  if (options_.adp_alpha >= 0.0) {
    alpha_ = options_.adp_alpha;
  } else {
    // Paper §3.3: α = 0.5 for textual datasets, 0.99 for tabular ones.
    alpha_ = context.split->train.meta().task == TaskType::kTextClassification
                 ? 0.5
                 : 0.99;
  }
  label_model_ = MakeLabelModel(options_.label_model_type);
  // One budget for the whole pipeline: every solver sees the same deadline
  // and cancellation token, and the blanket step shares the retry budget.
  label_model_->set_limits(options_.policy.limits);
  options_.al_lr.limits = options_.policy.limits;
  options_.label_pick.blanket.limits = options_.policy.limits;
  options_.label_pick.blanket.retrier = &retrier_;
}

SamplerContext ActiveDp::BuildSamplerContext() const {
  SamplerContext ctx;
  ctx.train = &context_->split->train;
  ctx.al_proba = al_model_.has_value() ? &al_proba_train_ : nullptr;
  ctx.lm_proba = label_model_ready_ ? &lm_proba_train_ : nullptr;
  ctx.lm_active = label_model_ready_ ? &lm_active_train_ : nullptr;
  ctx.queried = &queried_;
  ctx.num_labeled = static_cast<int>(query_indices_.size());
  if (!pseudo_labels_.empty()) {
    double positive = 0.0;
    for (int y : pseudo_labels_) positive += (y == 1);
    ctx.labeled_positive_fraction = positive / pseudo_labels_.size();
  }
  ctx.lf_space = &user_.lf_space();
  ctx.adp_alpha = alpha_;
  return ctx;
}

Status ActiveDp::Step() {
  TraceSpan step_span("activedp.step");
  MetricsRegistry::Global().counter("activedp.steps").Increment();
  RETURN_IF_ERROR(options_.policy.limits.Check("activedp.step"));
  const SamplerContext sampler_context = BuildSamplerContext();
  const int query = [&]() {
    TraceSpan span("sampler.select");
    return sampler_->SelectQuery(sampler_context, rng_);
  }();
  if (query < 0)
    return Status::FailedPrecondition("all training instances queried");
  CHECK(!queried_[query]);
  queried_[query] = true;
  last_query_ = query;

  FaultInjector& injector = FaultInjector::Global();
  const int oracle_fires_before =
      injector.any_armed() ? injector.fire_count("oracle.create_lf") : 0;
  std::optional<LfCandidate> response = [&]() {
    TraceSpan span("oracle.create_lf");
    return user_.CreateLf(query);
  }();
  if (!response.has_value()) {
    // The user could not come up with a (new) rule for this instance; the
    // interaction is spent but the models are unchanged. An *injected*
    // empty response (as opposed to a naturally exhausted candidate set) is
    // recorded so chaos runs can account for every fired fault.
    if (injector.any_armed() &&
        injector.fire_count("oracle.create_lf") > oracle_fires_before) {
      recovery_.Record("oracle",
                       "injected empty LF response at oracle.create_lf",
                       "interaction spent, models unchanged");
    }
    return Status::Ok();
  }
  const LfPtr lf = response->lf;
  lfs_.push_back(lf);
  {
    TraceSpan span("lf.apply");
    span.AddArg("num_lfs", static_cast<int64_t>(lfs_.size()));
    AddLfColumns(*lf);
  }

  // The LF was designed while looking at the query instance, so it fires on
  // it; its vote is the query's pseudo-label ỹ = λ_t(x_t) (§3.1).
  CHECK_NE(lf->Apply(context_->split->train.example(query)), kAbstain);
  query_indices_.push_back(query);
  pseudo_labels_.push_back(lf->label());

  // A budget trip inside either retrain propagates (DESIGN.md §7) and
  // abandons the rest of the step; the LF and its pseudo-label stay.
  RETURN_IF_ERROR(RetrainAlModel());
  RETURN_IF_ERROR(RetrainLabelModel());
  // The refits refilled the probability tables: the next question's scores
  // are computed now, so a declined step after this one costs one scan.
  TraceSpan span("sampler.select");
  span.AddArg("refresh", 1);
  sampler_->Refresh(BuildSamplerContext());
  return Status::Ok();
}

Status ActiveDp::Restore(const SessionState& state) {
  if (!lfs_.empty() || user_.num_queries_answered() > 0) {
    return Status::FailedPrecondition(
        "Restore must run on a fresh pipeline");
  }
  if (state.query_indices.size() != state.lfs.size() ||
      state.pseudo_labels.size() != state.lfs.size()) {
    return Status::InvalidArgument("session state sizes are inconsistent");
  }
  // Everything is checked before anything changes, so a refused session
  // leaves the pipeline fresh.
  RETURN_IF_ERROR(ValidateLfs(state.lfs, context_->num_classes,
                              context_->split->train.meta().task,
                              context_->feature_dim));
  const int n = context_->split->train.size();
  for (size_t i = 0; i < state.lfs.size(); ++i) {
    const int query = state.query_indices[i];
    if (query < -1 || query >= n) {
      return Status::OutOfRange("query index " + std::to_string(query) +
                                " outside the training set");
    }
    const int pseudo = state.pseudo_labels[i];
    if (pseudo < -1 || pseudo >= context_->num_classes) {
      return Status::InvalidArgument(
          "pseudo-label " + std::to_string(pseudo) + " of LF " +
          std::to_string(i) + " is not a class of " +
          std::to_string(context_->num_classes));
    }
  }
  for (size_t i = 0; i < state.lfs.size(); ++i) {
    const LfPtr& lf = state.lfs[i];
    lfs_.push_back(lf);
    AddLfColumns(*lf);
    const int query = state.query_indices[i];
    if (query < 0) continue;  // hand-written LF: no pseudo-label anchor
    queried_[query] = true;
    query_indices_.push_back(query);
    pseudo_labels_.push_back(state.pseudo_labels[i] >= 0
                                 ? state.pseudo_labels[i]
                                 : lf->label());
  }
  if (!lfs_.empty()) {
    RETURN_IF_ERROR(RetrainAlModel());
    RETURN_IF_ERROR(RetrainLabelModel());
    sampler_->Refresh(BuildSamplerContext());
  }
  return Status::Ok();
}

void ActiveDp::AddLfColumns(const LabelFunction& lf) {
  train_matrix_.AddColumn(ApplyLf(lf, context_->split->train));
  std::vector<int8_t> valid_column = ApplyLf(lf, context_->split->valid);
  valid_stats_.push_back(
      ComputeColumnStats(valid_column, context_->valid_labels));
  valid_matrix_.AddColumn(std::move(valid_column));
}

SessionState ActiveDp::Snapshot() const {
  SessionState state;
  state.lfs = lfs_;
  state.query_indices = query_indices_;
  state.pseudo_labels = pseudo_labels_;
  return state;
}

Status ActiveDp::RetrainAlModel() {
  const int t = static_cast<int>(query_indices_.size());
  if (t < options_.min_labeled_for_al) return Status::Ok();
  bool has_two_classes = false;
  for (int i = 1; i < t; ++i) {
    if (pseudo_labels_[i] != pseudo_labels_[0]) {
      has_two_classes = true;
      break;
    }
  }
  if (!has_two_classes) return Status::Ok();

  TraceSpan span("al_model.fit");
  span.AddArg("num_labeled", t);
  std::vector<SparseVector> x;
  x.reserve(t);
  for (int idx : query_indices_) x.push_back(context_->train_features[idx]);
  LogisticRegressionOptions lr = options_.al_lr;
  lr.seed = options_.seed ^ 0x11;
  // Retry-before-degrade: transient fit failures (injected faults, diverged
  // weights) get the policy's attempts before the cascade below fires.
  Result<LogisticRegression> model =
      retrier_.RunResulting<LogisticRegression>(
          "al_model.fit", options_.policy.limits, [&]() {
            return LogisticRegression::FitHard(x, pseudo_labels_,
                                               context_->num_classes,
                                               context_->feature_dim, lr);
          });
  if (!model.ok()) {
    if (IsBudgetTrip(model.status())) return model.status();
    // Degradation cascade step 3: the pipeline keeps running on the label
    // model alone (ConFusion handles empty AL rows); a previously trained
    // AL model, if any, stays in service.
    recovery_.Record("al_model", model.status().ToString(),
                     al_model_.has_value()
                         ? "keeping previous AL model"
                         : "label-model-only ConFusion");
    return Status::Ok();
  }
  al_model_ = std::move(*model);
  al_model_->PredictProbaTable(context_->train_features, &al_proba_train_);
  return Status::Ok();
}

Result<double> ActiveDp::ValidationLabelModelAccuracy(
    const std::vector<int>& columns) const {
  const LabelMatrix valid_selected = valid_matrix_.SelectColumns(columns);
  const LabelMatrix train_selected = train_matrix_.SelectColumns(columns);
  auto model = MakeLabelModel(options_.label_model_type);
  model->set_limits(options_.policy.limits);
  const Status fit = model->Fit(train_selected, context_->num_classes);
  if (IsBudgetTrip(fit)) return fit;
  if (!fit.ok()) return -1.0;
  const Result<std::vector<int>> predictions =
      model->PredictAll(valid_selected);
  if (!predictions.ok()) return -1.0;
  return Accuracy(*predictions, context_->valid_labels);
}

Status ActiveDp::RetrainLabelModel() {
  const int m = static_cast<int>(lfs_.size());
  if (m == 0) return Status::Ok();

  std::vector<int> all(m);
  std::iota(all.begin(), all.end(), 0);
  if (options_.use_label_pick) {
    TraceSpan pick_span("label_pick");
    pick_span.AddArg("num_lfs", m);
    Result<std::vector<int>> picked = LabelPick(
        context_->num_classes, valid_stats_,
        train_matrix_.SelectRows(query_indices_), pseudo_labels_,
        options_.label_pick, &recovery_);
    if (IsBudgetTrip(picked.status())) return picked.status();
    if (!picked.ok()) {
      // Degradation cascade step 1 (total LabelPick failure): keep every
      // LF, i.e. run the label model unfiltered.
      recovery_.Record("label_pick", picked.status().ToString(),
                       "keeping all LFs");
      selected_ = all;
    } else {
      selected_ = std::move(*picked);
    }
    if (selected_.empty()) selected_ = all;
    // LabelPick proposes; the holdout disposes: keep the pruned set only
    // when it does not hurt label-model accuracy on the validation split
    // (the same holdout §3.2/§3.4 already consult).
    if (selected_.size() < all.size()) {
      ASSIGN_OR_RETURN(const double selected_accuracy,
                       ValidationLabelModelAccuracy(selected_));
      ASSIGN_OR_RETURN(const double all_accuracy,
                       ValidationLabelModelAccuracy(all));
      if (selected_accuracy + 1e-9 < all_accuracy) selected_ = all;
    }
    pick_span.AddArg("kept", static_cast<int64_t>(selected_.size()));
  } else {
    selected_ = all;
  }

  const LabelMatrix train_selected = train_matrix_.SelectColumns(selected_);
  // Retry-before-degrade: the configured model gets the policy's attempts
  // at full quality before the majority-vote fallback below fires. MeTaL's
  // fit fully re-initializes, so a retried fit after a transient fault is
  // bitwise-identical to a fault-free one.
  const Status fit = [&]() {
    TraceSpan span("label_model.fit");
    return retrier_.Run("label_model.fit", options_.policy.limits, [&]() {
      return label_model_->Fit(train_selected, context_->num_classes);
    });
  }();
  if (IsBudgetTrip(fit)) return fit;
  if (fit.ok()) {
    if (fallback_label_model_ != nullptr) {
      // The configured model recovered; leave the degraded mode.
      recovery_.Record("label_model", "configured model fits again",
                       "leaving majority-vote fallback");
      fallback_label_model_.reset();
    }
  } else {
    // Degradation cascade step 2: aggregate with majority vote (the
    // extension of the metal_completion small-m fallback to the whole
    // pipeline) instead of dropping weak supervision entirely.
    auto majority = std::make_unique<MajorityVoteModel>();
    const Status mv_fit =
        majority->Fit(train_selected, context_->num_classes);
    if (mv_fit.ok()) {
      recovery_.Record("label_model", fit.ToString(),
                       "majority-vote aggregation");
      fallback_label_model_ = std::move(majority);
    } else {
      recovery_.Record("label_model",
                       fit.ToString() + "; majority vote also failed: " +
                           mv_fit.ToString(),
                       "AL-model-only pipeline");
      fallback_label_model_.reset();
      label_model_ready_ = false;
      return Status::Ok();
    }
  }

  const Status predictions = [&]() {
    TraceSpan span("label_model.predict");
    return LabelModelPredictions(train_selected, &lm_proba_train_,
                                 &lm_active_train_);
  }();
  if (!predictions.ok()) {
    if (fallback_label_model_ == nullptr) {
      // The configured model fit but predicts garbage (e.g. non-finite
      // probabilities): degrade to majority vote and retry once.
      auto majority = std::make_unique<MajorityVoteModel>();
      if (majority->Fit(train_selected, context_->num_classes).ok()) {
        recovery_.Record("label_model", predictions.ToString(),
                         "majority-vote aggregation");
        fallback_label_model_ = std::move(majority);
        if (LabelModelPredictions(train_selected, &lm_proba_train_,
                                  &lm_active_train_)
                .ok()) {
          label_model_ready_ = true;
          return Status::Ok();
        }
      }
    }
    recovery_.Record("label_model", predictions.ToString(),
                     "AL-model-only pipeline");
    fallback_label_model_.reset();
    label_model_ready_ = false;
    return Status::Ok();
  }
  label_model_ready_ = true;
  return Status::Ok();
}

Status ActiveDp::LabelModelPredictions(const LabelMatrix& matrix,
                                       ProbaTable* proba,
                                       std::vector<bool>* active) const {
  RETURN_IF_ERROR(current_label_model()->PredictProbaTable(
      matrix, context_->num_classes, proba));
  active->assign(matrix.num_rows(), false);
  for (int i = 0; i < matrix.num_rows(); ++i) {
    (*active)[i] = matrix.AnyActive(i);
  }
  // Stage-boundary guard: nothing non-finite or unnormalized leaves the
  // label-model stage.
  return ValidateProbaRows(*proba, "label-model predictions");
}

std::vector<std::vector<double>> ActiveDp::CurrentTrainingLabels() {
  const int n = context_->split->train.size();
  if (!label_model_ready_ && !al_model_.has_value()) {
    return std::vector<std::vector<double>>(n);
  }

  // The cached tables hold the current models' predictions.
  std::vector<std::vector<double>> lm_proba_train(n);
  std::vector<bool> lm_active_train(n, false);
  if (label_model_ready_) {
    lm_proba_train = lm_proba_train_.ToRows();
    lm_active_train = lm_active_train_;
  }

  if (!options_.use_confusion) {
    // DP-only inference: label-model predictions on covered rows.
    std::vector<std::vector<double>> soft(n);
    for (int i = 0; i < n; ++i) {
      if (lm_active_train[i]) soft[i] = std::move(lm_proba_train[i]);
    }
    return soft;
  }

  // ConFusion: tune τ on validation, aggregate on train (Eq. 1).
  TraceSpan span("confusion");
  // Empty AL rows mean "no prediction".
  std::vector<std::vector<double>> al_valid(context_->split->valid.size());
  if (al_model_.has_value()) {
    ProbaTable valid_table;
    al_model_->PredictProbaTable(context_->valid_features, &valid_table);
    al_valid = valid_table.ToRows();
  }
  std::vector<std::vector<double>> lm_valid(context_->split->valid.size());
  std::vector<bool> lm_valid_active(context_->split->valid.size(), false);
  if (label_model_ready_) {
    ProbaTable valid_table;
    const Status valid_predictions =
        LabelModelPredictions(valid_matrix_.SelectColumns(selected_),
                              &valid_table, &lm_valid_active);
    if (valid_predictions.ok()) {
      lm_valid = valid_table.ToRows();
    } else {
      // Tuning falls back to treating the label model as inactive on
      // validation; training predictions were already validated.
      recovery_.Record("confusion", valid_predictions.ToString(),
                       "tuning threshold without label-model votes");
      lm_valid_active.assign(context_->split->valid.size(), false);
    }
  }
  last_threshold_ =
      ConFusion::TuneThreshold(al_valid, lm_valid, lm_valid_active,
                               context_->valid_labels, options_.tune_objective);

  const std::vector<std::vector<double>> al_train =
      al_model_.has_value() ? al_proba_train_.ToRows()
                            : std::vector<std::vector<double>>(n);
  AggregatedLabels aggregated = ConFusion::Aggregate(
      al_train, lm_proba_train, lm_active_train, last_threshold_);
  return std::move(aggregated.soft);
}

}  // namespace activedp
