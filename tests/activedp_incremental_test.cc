// Session-level differential test of the incremental label-model path:
// ActiveDP maintains its training label matrix, row view and pair moments
// column by column and fits on selections of it. After every step, its
// label model must serialize exactly like a MetalModel fitted from scratch
// on ApplyLfs(selected LFs, train), and a whole session must be bitwise
// identical at 1 and 4 compute threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/activedp.h"
#include "data/dataset_zoo.h"
#include "labelmodel/metal_model.h"
#include "lf/lf_applier.h"
#include "util/thread_pool.h"

namespace activedp {
namespace {

constexpr int kSteps = 60;

/// FNV-1a over the bit patterns of the training labels.
uint64_t LabelsDigest(const std::vector<std::vector<double>>& labels) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto add = [&](uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& row : labels) {
    add(row.size());
    for (double v : row) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      add(bits);
    }
  }
  return hash;
}

struct SessionRecord {
  std::vector<std::vector<int>> selected;  // selected_lfs() after each step
  uint64_t labels_digest = 0;
};

/// Runs kSteps ActiveDP steps on `dataset` at scale 0.1, checking the label
/// model against a from-scratch fit after every step.
void RunSession(const std::string& dataset, int threads,
                SessionRecord* record) {
  SetComputePoolThreads(threads);
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
    record->selected.push_back(pipeline.selected_lfs());
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
    ASSERT_EQ(*actual, *expected)
        << dataset << ", step " << t << ", " << threads << " threads";
    ++checked;
  }
  EXPECT_GT(checked, kSteps / 2) << dataset;
  record->labels_digest = LabelsDigest(pipeline.CurrentTrainingLabels());
}

class IncrementalSessionTest : public testing::TestWithParam<const char*> {};

TEST_P(IncrementalSessionTest, LabelModelMatchesFromScratchFitEveryStep) {
  const int threads_before = ComputePoolThreads();
  SessionRecord serial, pooled;
  RunSession(GetParam(), 1, &serial);
  if (!HasFatalFailure()) RunSession(GetParam(), 4, &pooled);
  SetComputePoolThreads(threads_before);
  if (HasFatalFailure()) return;
  EXPECT_EQ(serial.selected, pooled.selected);
  EXPECT_EQ(serial.labels_digest, pooled.labels_digest);
}

INSTANTIATE_TEST_SUITE_P(TextDatasets, IncrementalSessionTest,
                         testing::Values("youtube", "imdb"));

}  // namespace
}  // namespace activedp
