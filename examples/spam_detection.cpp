// Spam detection with hand-written label functions — the paper's Fig. 1
// running example, driven through the public LF / label-model API without
// the interactive loop. Shows how a user would bring their own rules:
//   "check"  -> SPAM,  "subscribe" -> SPAM,  "song" -> HAM, ...
// aggregates them with each label model, and trains a downstream classifier.
//
// Build & run:  cmake --build build && ./build/examples/spam_detection

#include <cstdio>

#include "core/end_model.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "labelmodel/label_model.h"
#include "lf/lf_applier.h"
#include "ml/featurizer.h"
#include "ml/metrics.h"

using namespace activedp;  // NOLINT: example code

int main() {
  // The synthetic YouTube-Spam stand-in. Class-1 keywords are named c1w<i>,
  // class-0 keywords c0w<i> (see data/synthetic_text.h); a real user would
  // write rules on words like "check" or "subscribe".
  Result<DataSplit> split = MakeZooDataset("youtube", 1.0, 7);
  if (!split.ok()) {
    std::fprintf(stderr, "%s\n", split.status().ToString().c_str());
    return 1;
  }
  const Dataset& train = split->train;
  const Vocabulary& vocab = train.vocabulary();

  // 1. Write keyword label functions against the vocabulary. We pick a few
  //    strong keywords per class, exactly what a domain expert would do
  //    after skimming some examples.
  std::vector<LfPtr> lfs;
  for (const char* word : {"c1w0", "c1w1", "c1w2", "c1w4", "c1w7"}) {
    const int id = vocab.GetId(word);
    if (id != Vocabulary::kUnknownId) {
      lfs.push_back(std::make_shared<KeywordLf>(id, word, /*label=*/1));
    }
  }
  for (const char* word : {"c0w0", "c0w1", "c0w3", "c0w5", "c0w8"}) {
    const int id = vocab.GetId(word);
    if (id != Vocabulary::kUnknownId) {
      lfs.push_back(std::make_shared<KeywordLf>(id, word, /*label=*/0));
    }
  }
  std::printf("wrote %zu label functions\n", lfs.size());

  // 2. Apply them to the unlabeled training set -> weak-label matrix.
  const LabelMatrix matrix = ApplyLfs(lfs, train);
  const std::vector<int> truth = train.Labels();
  std::printf("matrix: %d rows x %d LFs, coverage %.1f%%\n\n",
              matrix.num_rows(), matrix.num_cols(),
              100.0 * matrix.OverallCoverage());
  std::printf("%-28s %-9s %-9s\n", "LF", "coverage", "accuracy");
  for (int j = 0; j < matrix.num_cols(); ++j) {
    const LfColumnStats stats =
        ComputeColumnStats(ApplyLf(*lfs[j], train), truth);
    std::printf("%-28s %-9.3f %-9.3f\n", lfs[j]->Name().c_str(),
                stats.coverage, stats.accuracy);
  }

  // 3. Aggregate with each label model and compare label quality.
  std::printf("\n%-16s %-10s %-10s %-10s\n", "label model", "label-acc",
              "coverage", "end-acc");
  FrameworkContext context = FrameworkContext::Build(*split);
  for (LabelModelType type :
       {LabelModelType::kMajorityVote, LabelModelType::kDawidSkene,
        LabelModelType::kMetal}) {
    auto model = MakeLabelModel(type);
    const Status fit = model->Fit(matrix, train.meta().num_classes);
    if (!fit.ok()) {
      std::fprintf(stderr, "%s: %s\n", model->name().c_str(),
                   fit.ToString().c_str());
      continue;
    }
    const std::vector<int> predictions = model->PredictAll(matrix).value();
    const double label_accuracy = Accuracy(predictions, truth);
    const double coverage = Coverage(predictions);

    // Probabilistic labels on covered rows -> downstream model.
    std::vector<std::vector<double>> soft(train.size());
    for (int i = 0; i < train.size(); ++i) {
      if (matrix.AnyActive(i)) {
        soft[i] = model->PredictProbaSparse(matrix.ActiveRow(i),
                                            matrix.num_cols())
                      .value();
      }
    }
    double end_accuracy = 0.0;
    Result<LogisticRegression> end_model =
        TrainEndModel(context.train_features, soft, context.num_classes,
                      context.feature_dim, EndModelOptions{});
    if (end_model.ok()) {
      end_accuracy = EvaluateAccuracy(*end_model, context.test_features,
                                      context.test_labels);
    }
    std::printf("%-16s %-10.3f %-10.3f %-10.3f\n", model->name().c_str(),
                label_accuracy, coverage, end_accuracy);
  }
  return 0;
}
