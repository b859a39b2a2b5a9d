// Session-level differential test of the incremental label-model path:
// ActiveDP maintains its training label matrix, row view and pair moments
// column by column and fits on selections of it. After every step, its
// label model must serialize exactly like a MetalModel fitted from scratch
// on ApplyLfs(selected LFs, train).

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

INSTANTIATE_TEST_SUITE_P(TextDatasets, IncrementalSessionTest,
                         testing::Values("youtube", "imdb"));

}  // namespace
}  // namespace activedp
