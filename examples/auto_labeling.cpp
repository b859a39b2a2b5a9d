// Automatic labelling without a human in the loop: given a small labelled
// seed, Snuba-style LF synthesis (core/auto_lf.h) builds an LF set, a label
// model aggregates it over the full unlabelled corpus, and the downstream
// model trains on the result.
//
// The comparison this example runs is the paper's §1 argument in miniature:
//   1. seed-only training        — high-precision labels, tiny coverage
//   2. auto-LF weak supervision  — large coverage, but synthesized rules
//                                   carry correlated errors the downstream
//                                   model amplifies (Snuba's limitation)
//   3. ConFusion of (1) + (2)    — better labels, still bounded by the
//                                   synthesized LF quality
//   4. interactive ActiveDP      — the same interaction budget spent in the
//                                   loop (human-vetted rules + AL model)
//                                   wins, which is the paper's thesis
//
// Build & run:  cmake --build build && ./build/examples/auto_labeling

#include <cstdio>

#include "core/activedp.h"
#include "core/auto_lf.h"
#include "core/confusion.h"
#include "core/label_pick.h"
#include "core/end_model.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "labelmodel/label_model.h"
#include "lf/lf_applier.h"
#include "ml/metrics.h"
#include "util/rng.h"

using namespace activedp;  // NOLINT: example code

int main() {
  Result<DataSplit> split = MakeZooDataset("youtube", /*scale=*/1.0,
                                           /*seed=*/31);
  if (!split.ok()) {
    std::fprintf(stderr, "%s\n", split.status().ToString().c_str());
    return 1;
  }
  FrameworkContext context = FrameworkContext::Build(*split);
  const Dataset& train = split->train;

  // A seed of 120 labelled documents (here taken from ground truth; in
  // practice this is the small set you can afford to annotate).
  Rng rng(7);
  std::vector<int> seed_rows =
      rng.SampleWithoutReplacement(train.size(), 120);
  std::vector<int> seed_labels;
  for (int row : seed_rows) seed_labels.push_back(train.example(row).label);

  // Baseline: downstream model trained on the seed only.
  {
    std::vector<std::vector<double>> soft(train.size());
    for (size_t i = 0; i < seed_rows.size(); ++i) {
      soft[seed_rows[i]] = {0.0, 0.0};
      soft[seed_rows[i]][seed_labels[i]] = 1.0;
    }
    Result<LogisticRegression> model =
        TrainEndModel(context.train_features, soft, context.num_classes,
                      context.feature_dim, EndModelOptions{});
    if (model.ok()) {
      std::printf("seed-only training (120 labels): test accuracy %.3f\n",
                  EvaluateAccuracy(*model, context.test_features,
                                   context.test_labels));
    }
  }

  // Auto-LF: synthesize rules from the seed, aggregate, train.
  const auto space = BuildLfSpace(train);
  AutoLfOptions auto_options;
  auto_options.wilson_z = 1.0;  // small seed: relax the evidence bar
  auto_options.max_lfs = 60;    // diversity matters for the label model
  Result<std::vector<SynthesizedLf>> synthesized =
      SynthesizeLfs(train, *space, seed_rows, seed_labels, auto_options);
  if (!synthesized.ok()) {
    std::fprintf(stderr, "synthesis: %s\n",
                 synthesized.status().ToString().c_str());
    return 1;
  }
  std::printf("synthesized %zu LFs, e.g.:\n", synthesized->size());
  for (size_t k = 0; k < synthesized->size() && k < 5; ++k) {
    std::printf("  %-24s seed-acc %.2f coverage %.1f%%\n",
                (*synthesized)[k].lf->Name().c_str(),
                (*synthesized)[k].seed_accuracy,
                100.0 * (*synthesized)[k].coverage);
  }

  std::vector<LfPtr> all_lfs;
  for (const auto& s : *synthesized) all_lfs.push_back(s.lf);

  // LabelPick (§3.4) composes naturally with synthesis: prune the
  // statistical flukes against the validation holdout and keep the label's
  // Markov blanket, using the seed as the queried-instance table.
  Dataset seed_view(train.meta(), [&] {
    std::vector<Example> rows;
    for (int row : seed_rows) rows.push_back(train.example(row));
    return rows;
  }());
  std::vector<LfColumnStats> valid_stats;
  for (const LfPtr& lf : all_lfs) {
    valid_stats.push_back(
        ComputeColumnStats(ApplyLf(*lf, split->valid), context.valid_labels));
  }
  Result<std::vector<int>> picked =
      LabelPick(context.num_classes, valid_stats, ApplyLfs(all_lfs, seed_view),
                seed_labels, LabelPickOptions{});
  std::vector<LfPtr> lfs;
  if (picked.ok()) {
    for (int j : *picked) lfs.push_back(all_lfs[j]);
    std::printf("LabelPick kept %zu of %zu synthesized LFs\n", lfs.size(),
                all_lfs.size());
  } else {
    lfs = all_lfs;
  }
  const LabelMatrix matrix = ApplyLfs(lfs, train);
  auto label_model = MakeLabelModel(LabelModelType::kMetal);
  if (!label_model->Fit(matrix, context.num_classes).ok()) return 1;

  std::vector<std::vector<double>> soft(train.size());
  for (int i = 0; i < train.size(); ++i) {
    if (matrix.AnyActive(i)) {
      soft[i] = label_model
                    ->PredictProbaSparse(matrix.ActiveRow(i), matrix.num_cols())
                    .value();
    }
  }
  // Keep the seed's exact labels too — they are known.
  for (size_t i = 0; i < seed_rows.size(); ++i) {
    soft[seed_rows[i]] = {0.0, 0.0};
    soft[seed_rows[i]][seed_labels[i]] = 1.0;
  }
  const LabelQuality quality = MeasureLabelQuality(soft, train);
  std::printf("weak labels: accuracy %.3f at coverage %.3f\n",
              quality.accuracy, quality.coverage);

  Result<LogisticRegression> model =
      TrainEndModel(context.train_features, soft, context.num_classes,
                    context.feature_dim, EndModelOptions{});
  if (model.ok()) {
    std::printf("auto-LF training: test accuracy %.3f\n",
                EvaluateAccuracy(*model, context.test_features,
                                 context.test_labels));
  }

  // The paper's thesis in miniature: neither source alone is best — combine
  // them with ConFusion (Eq. 1). The seed-trained model plays the AL model;
  // the threshold is tuned on the validation split.
  std::vector<SparseVector> seed_x;
  std::vector<int> seed_y;
  for (size_t i = 0; i < seed_rows.size(); ++i) {
    seed_x.push_back(context.train_features[seed_rows[i]]);
    seed_y.push_back(seed_labels[i]);
  }
  Result<LogisticRegression> seed_model = LogisticRegression::FitHard(
      seed_x, seed_y, context.num_classes, context.feature_dim);
  if (!seed_model.ok()) return 1;

  auto predict_all = [&](const std::vector<SparseVector>& features) {
    std::vector<std::vector<double>> proba(features.size());
    for (size_t i = 0; i < features.size(); ++i) {
      proba[i] = seed_model->PredictProba(features[i]);
    }
    return proba;
  };
  const LabelMatrix valid_matrix = ApplyLfs(lfs, split->valid);
  std::vector<std::vector<double>> lm_valid(split->valid.size());
  std::vector<bool> lm_valid_active(split->valid.size());
  for (int i = 0; i < split->valid.size(); ++i) {
    lm_valid[i] = label_model
                      ->PredictProbaSparse(valid_matrix.ActiveRow(i),
                                           valid_matrix.num_cols())
                      .value();
    lm_valid_active[i] = valid_matrix.AnyActive(i);
  }
  const double tau = ConFusion::TuneThreshold(
      predict_all(context.valid_features), lm_valid, lm_valid_active,
      context.valid_labels);

  std::vector<std::vector<double>> lm_train(train.size());
  std::vector<bool> lm_train_active(train.size());
  for (int i = 0; i < train.size(); ++i) {
    lm_train[i] = label_model
                      ->PredictProbaSparse(matrix.ActiveRow(i),
                                           matrix.num_cols())
                      .value();
    lm_train_active[i] = matrix.AnyActive(i);
  }
  AggregatedLabels combined =
      ConFusion::Aggregate(predict_all(context.train_features), lm_train,
                           lm_train_active, tau);
  const LabelQuality combined_quality =
      MeasureLabelQuality(combined.soft, train);
  std::printf(
      "ConFusion(seed model + auto-LFs), tau=%.2f: labels %.3f at "
      "coverage %.3f\n",
      tau, combined_quality.accuracy, combined_quality.coverage);
  Result<LogisticRegression> combined_model =
      TrainEndModel(context.train_features, combined.soft,
                    context.num_classes, context.feature_dim,
                    EndModelOptions{});
  if (combined_model.ok()) {
    std::printf("combined training: test accuracy %.3f\n",
                EvaluateAccuracy(*combined_model, context.test_features,
                                 context.test_labels));
  }

  // 4. The interactive alternative: the same 120-interaction budget spent
  // in ActiveDP's loop (user-vetted LFs + pseudo-labelled AL model +
  // ConFusion) — the combination the paper advocates.
  ActiveDpOptions adp_options;
  adp_options.seed = 31;
  ActiveDp pipeline(context, adp_options);
  for (int t = 0; t < 120; ++t) {
    if (!pipeline.Step().ok()) break;
  }
  Result<LogisticRegression> adp_model = TrainEndModel(
      context.train_features, pipeline.CurrentTrainingLabels(),
      context.num_classes, context.feature_dim, EndModelOptions{});
  if (adp_model.ok()) {
    std::printf("interactive ActiveDP (120 queries): test accuracy %.3f\n",
                EvaluateAccuracy(*adp_model, context.test_features,
                                 context.test_labels));
  }
  return 0;
}
