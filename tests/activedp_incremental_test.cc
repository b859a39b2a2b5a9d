// Session-level differential tests of ActiveDP's incremental paths against
// from-scratch references. ActiveDP maintains its training label matrix,
// row view and pair moments column by column and fits on selections of it:
// after every step, its label model must serialize exactly like a MetalModel
// fitted from scratch on ApplyLfs(selected LFs, train). It also keeps flat
// probability tables, cached ADP scores and per-column validation
// statistics: the queries and statistics they produce must equal those
// rebuilt from scratch.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "active/adp.h"
#include "core/activedp.h"
#include "data/dataset_zoo.h"
#include "labelmodel/metal_model.h"
#include "lf/lf_applier.h"

namespace activedp {
namespace {

constexpr int kSteps = 60;

class IncrementalSessionTest : public testing::TestWithParam<const char*> {};

/// Runs kSteps ActiveDP steps at scale 0.1, checking the label model against
/// a from-scratch fit after every step.
TEST_P(IncrementalSessionTest, LabelModelMatchesFromScratchFitEveryStep) {
  const std::string dataset = GetParam();
  Result<DataSplit> split = MakeZooDataset(dataset, 0.1, 5);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  const FrameworkContext context = FrameworkContext::Build(*split);
  ActiveDpOptions options;
  options.seed = 17;
  ActiveDp pipeline(context, options);
  int checked = 0;
  for (int t = 0; t < kSteps; ++t) {
    const Status status = pipeline.Step();
    ASSERT_TRUE(status.ok()) << status.ToString();
    if (!pipeline.has_label_model()) continue;
    ASSERT_FALSE(pipeline.using_fallback_label_model());
    std::vector<LfPtr> selected;
    for (int j : pipeline.selected_lfs()) selected.push_back(pipeline.lfs()[j]);
    MetalModel reference;
    ASSERT_TRUE(
        reference.Fit(ApplyLfs(selected, split->train), context.num_classes)
            .ok());
    const Result<std::string> expected = reference.SerializeParams();
    const Result<std::string> actual =
        pipeline.label_model()->SerializeParams();
    ASSERT_TRUE(expected.ok() && actual.ok());
    ASSERT_EQ(*actual, *expected) << dataset << ", step " << t;
    ++checked;
  }
  EXPECT_GT(checked, kSteps / 2) << dataset;
}

/// The flat probability tables and the cached ADP scores against the
/// from-scratch path: before every step of a 40-step session, the query the
/// pipeline asks next must be AdpSampler's pick on tables rebuilt from the
/// current models' PredictProba / PredictProbaSparse rows. At the end, the
/// cached validation statistics must equal ComputeColumnStats per column.
TEST_P(IncrementalSessionTest, NextQueryMatchesFromScratchAdpEveryStep) {
  const std::string dataset = GetParam();
  Result<DataSplit> split = MakeZooDataset(dataset, 0.1, 5);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  const FrameworkContext context = FrameworkContext::Build(*split);
  ActiveDpOptions options;
  options.seed = 17;
  ActiveDp pipeline(context, options);
  const int n = split->train.size();
  std::vector<bool> queried(n, false);
  int checked = 0;
  for (int t = 0; t < 40; ++t) {
    int expected = -1;
    if (pipeline.has_al_model() || pipeline.has_label_model()) {
      SamplerContext reference;
      reference.train = &split->train;
      reference.queried = &queried;
      reference.adp_alpha = 0.5;  // the text default
      ProbaTable al;
      ProbaTable lm;
      if (pipeline.has_al_model()) {
        al.Resize(n, context.num_classes);
        const LogisticRegression& model = *pipeline.al_model();
        for (int i = 0; i < n; ++i) {
          al.SetRow(i, model.PredictProba(context.train_features[i]));
        }
        reference.al_proba = &al;
      }
      if (pipeline.has_label_model()) {
        std::vector<LfPtr> selected;
        for (int j : pipeline.selected_lfs()) {
          selected.push_back(pipeline.lfs()[j]);
        }
        const LabelMatrix matrix = ApplyLfs(selected, split->train);
        lm.Resize(n, context.num_classes);
        for (int i = 0; i < n; ++i) {
          lm.SetRow(i, pipeline.label_model()
                           ->PredictProbaSparse(matrix.ActiveRow(i),
                                                matrix.num_cols())
                           .value());
        }
        reference.lm_proba = &lm;
      }
      AdpSampler sampler;
      Rng unused(1);
      expected = sampler.SelectQuery(reference, unused);
    }
    const Status status = pipeline.Step();
    ASSERT_TRUE(status.ok()) << status.ToString();
    queried[pipeline.last_query()] = true;
    if (expected < 0) continue;
    ASSERT_EQ(pipeline.last_query(), expected) << dataset << ", step " << t;
    ++checked;
  }
  EXPECT_GT(checked, 20) << dataset;

  ASSERT_EQ(pipeline.valid_column_stats().size(), pipeline.lfs().size());
  for (size_t j = 0; j < pipeline.lfs().size(); ++j) {
    const LfColumnStats expected = ComputeColumnStats(
        ApplyLf(*pipeline.lfs()[j], split->valid), context.valid_labels);
    const LfColumnStats& cached = pipeline.valid_column_stats()[j];
    EXPECT_EQ(cached.activations, expected.activations) << j;
    EXPECT_EQ(cached.coverage, expected.coverage) << j;
    EXPECT_EQ(cached.accuracy, expected.accuracy) << j;
  }
}

INSTANTIATE_TEST_SUITE_P(TextDatasets, IncrementalSessionTest,
                         testing::Values("youtube", "imdb"));

}  // namespace
}  // namespace activedp
