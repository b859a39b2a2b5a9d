#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/activedp.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "labelmodel/label_model.h"
#include "serve/model_snapshot.h"
#include "serve/snapshot_export.h"
#include "serve/snapshot_io.h"
#include "util/atomic_file.h"

namespace activedp {
namespace {

/// One trained pipeline shared by every test in the suite (training is the
/// expensive part; the tests only read from it).
class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<DataSplit> split = MakeZooDataset("youtube", 0.1, /*seed=*/5);
    ASSERT_TRUE(split.ok()) << split.status().ToString();
    split_ = new DataSplit(std::move(*split));
    context_ = new FrameworkContext(FrameworkContext::Build(*split_));
    ActiveDpOptions options;
    options.seed = 11;
    pipeline_ = new ActiveDp(*context_, options);
    for (int t = 0; t < 25; ++t) {
      const Status status = pipeline_->Step();
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    delete context_;
    delete split_;
    pipeline_ = nullptr;
    context_ = nullptr;
    split_ = nullptr;
  }

  static Result<ModelSnapshot> Export() {
    return ExportSnapshot(*pipeline_, *context_);
  }

  static DataSplit* split_;
  static FrameworkContext* context_;
  static ActiveDp* pipeline_;
};

DataSplit* SnapshotTest::split_ = nullptr;
FrameworkContext* SnapshotTest::context_ = nullptr;
ActiveDp* SnapshotTest::pipeline_ = nullptr;

TEST_F(SnapshotTest, ExportCapturesRunState) {
  Result<ModelSnapshot> snapshot = Export();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->num_classes(), context_->num_classes);
  EXPECT_EQ(snapshot->feature_dim(), context_->feature_dim);
  EXPECT_EQ(snapshot->threshold(), pipeline_->last_threshold());
  EXPECT_TRUE(snapshot->has_label_model());
  EXPECT_EQ(snapshot->state().lfs.size(), pipeline_->selected_lfs().size());
}

TEST_F(SnapshotTest, PredictionsMatchOfflineAggregateBitwise) {
  Result<ModelSnapshot> snapshot = Export();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  // The offline inference phase over the training set; CurrentTrainingLabels
  // is deterministic, so this re-run reproduces the export-time aggregation.
  const std::vector<std::vector<double>> offline =
      pipeline_->CurrentTrainingLabels();
  const Dataset& train = split_->train;
  for (int i = 0; i < train.size(); ++i) {
    Result<ServedPrediction> served = snapshot->Predict(train.example(i));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    // operator== on vector<double>: exact (bitwise) equality required.
    EXPECT_EQ(served->proba, offline[i]) << "row " << i;
    EXPECT_EQ(served->label == kAbstain, offline[i].empty()) << "row " << i;
  }
}

TEST_F(SnapshotTest, PredictBatchMatchesPredictAtAnyBatchSize) {
  Result<ModelSnapshot> snapshot = Export();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const Dataset& train = split_->train;
  const int n = std::min(train.size(), 64);
  std::vector<Result<ServedPrediction>> reference;
  for (int i = 0; i < n; ++i) {
    reference.push_back(snapshot->Predict(train.example(i)));
  }
  for (int batch_size : {1, 3, 17, n}) {
    for (int begin = 0; begin < n; begin += batch_size) {
      const int end = std::min(n, begin + batch_size);
      const std::vector<Example> batch(train.examples().begin() + begin,
                                       train.examples().begin() + end);
      const std::vector<Result<ServedPrediction>> results =
          snapshot->PredictBatch(batch);
      ASSERT_EQ(results.size(), batch.size());
      for (int k = 0; k < end - begin; ++k) {
        ASSERT_TRUE(results[k].ok());
        EXPECT_EQ(results[k]->proba, reference[begin + k]->proba)
            << "batch_size " << batch_size << " row " << begin + k;
      }
    }
  }
}

TEST_F(SnapshotTest, SaveLoadRoundTripsPredictionsBitwise) {
  Result<ModelSnapshot> snapshot = Export();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const std::string path = testing::TempDir() + "/roundtrip.snap";
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());
  Result<ModelSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->threshold(), snapshot->threshold());
  EXPECT_EQ(loaded->state().lfs.size(), snapshot->state().lfs.size());
  EXPECT_EQ(loaded->has_end_model(), snapshot->has_end_model());
  const Dataset& train = split_->train;
  for (int i = 0; i < train.size(); ++i) {
    Result<ServedPrediction> a = snapshot->Predict(train.example(i));
    Result<ServedPrediction> b = loaded->Predict(train.example(i));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->proba, b->proba) << "row " << i;
    EXPECT_EQ(a->label, b->label) << "row " << i;
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, MakeTextExampleMatchesDatasetConstruction) {
  Result<ModelSnapshot> snapshot = Export();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const Dataset& train = split_->train;
  for (int i = 0; i < std::min(train.size(), 32); ++i) {
    Result<Example> rebuilt =
        snapshot->MakeTextExample(train.example(i).text);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(rebuilt->term_counts, train.example(i).term_counts)
        << "row " << i;
  }
}

TEST_F(SnapshotTest, CorruptFileIsRejected) {
  Result<ModelSnapshot> snapshot = Export();
  ASSERT_TRUE(snapshot.ok());
  const std::string path = testing::TempDir() + "/corrupt.snap";
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());
  std::string content;
  {
    std::ifstream in(path);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  // Flip one byte in the middle: the checksum footer must catch it.
  content[content.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }
  Result<ModelSnapshot> loaded = LoadSnapshot(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, TruncatedFileIsRejected) {
  Result<ModelSnapshot> snapshot = Export();
  ASSERT_TRUE(snapshot.ok());
  const std::string path = testing::TempDir() + "/truncated.snap";
  ASSERT_TRUE(SaveSnapshot(*snapshot, path).ok());
  std::string content;
  {
    std::ifstream in(path);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  for (double fraction : {0.2, 0.5, 0.9}) {
    std::ofstream out(path, std::ios::trunc);
    out << content.substr(0, static_cast<size_t>(content.size() * fraction));
    out.close();
    Result<ModelSnapshot> loaded = LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "fraction " << fraction;
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, WrongVersionIsRejected) {
  // A structurally plausible file from a future format version, with a
  // *valid* checksum — only the version gate can reject it.
  const std::string path = testing::TempDir() + "/future.snap";
  const std::string body = "activedp-snapshot v999\nend\n";
  {
    std::ofstream out(path, std::ios::trunc);
    out << WithChecksumFooter(body);
  }
  Result<ModelSnapshot> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, InconsistentStateIsRejected) {
  Result<ModelSnapshot> exported = Export();
  ASSERT_TRUE(exported.ok());

  SnapshotState no_models = exported->state();
  no_models.label_model_name.clear();
  no_models.al_weights.reset();
  EXPECT_FALSE(ModelSnapshot::Create(std::move(no_models)).ok());

  SnapshotState bad_dim = exported->state();
  bad_dim.feature_dim += 1;  // vocab/idf no longer match
  EXPECT_FALSE(ModelSnapshot::Create(std::move(bad_dim)).ok());

  SnapshotState bad_version = exported->state();
  bad_version.version = kSnapshotVersion + 1;
  EXPECT_FALSE(ModelSnapshot::Create(std::move(bad_version)).ok());

  SnapshotState bad_params = exported->state();
  bad_params.label_model_params = "not numbers at all";
  EXPECT_FALSE(ModelSnapshot::Create(std::move(bad_params)).ok());
}

TEST_F(SnapshotTest, ConcurrentBatchesOnOneSharedSnapshot) {
  Result<ModelSnapshot> exported = Export();
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  const auto snapshot =
      std::make_shared<const ModelSnapshot>(std::move(*exported));
  const Dataset& train = split_->train;
  std::vector<ServedPrediction> reference;
  for (int i = 0; i < train.size(); ++i) {
    Result<ServedPrediction> p = snapshot->Predict(train.example(i));
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    reference.push_back(*p);
  }
  // Two dispatchers share the snapshot; each batch's row buffers belong to
  // its call, so neither thread can see the other's rows.
  std::atomic<int> mismatches{0};
  const auto serve = [&](int offset) {
    for (int pass = 0; pass < 3; ++pass) {
      for (int begin = offset; begin < train.size(); begin += 32) {
        const int end = std::min(train.size(), begin + 32);
        const std::vector<Example> batch(train.examples().begin() + begin,
                                         train.examples().begin() + end);
        const std::vector<Result<ServedPrediction>> results =
            snapshot->PredictBatch(batch);
        for (int k = 0; k < end - begin; ++k) {
          const ServedPrediction& want = reference[begin + k];
          if (!results[k].ok() || results[k]->proba != want.proba ||
              results[k]->label != want.label ||
              results[k]->source != want.source) {
            ++mismatches;
          }
        }
      }
    }
  };
  std::thread a(serve, 0);
  std::thread b(serve, 16);  // shifted batches: different rows at once
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// A small 4-LF matrix every label-model family can fit at k = 2.
LabelMatrix SmallBinaryMatrix() {
  LabelMatrix matrix(40);
  for (int j = 0; j < 4; ++j) {
    std::vector<int8_t> column(40, -1);
    for (int i = 0; i < 40; ++i) {
      if ((i + j) % 3 == 0) column[i] = static_cast<int8_t>((i / 20) % 2);
    }
    matrix.AddColumn(std::move(column));
  }
  return matrix;
}

/// `name`'s parameters fitted on SmallBinaryMatrix.
std::string FittedParams(const std::string& name) {
  Result<std::unique_ptr<LabelModel>> model = MakeLabelModelByName(name);
  EXPECT_TRUE(model.ok()) << name;
  EXPECT_TRUE((*model)->Fit(SmallBinaryMatrix(), 2).ok()) << name;
  Result<std::string> params = (*model)->SerializeParams();
  EXPECT_TRUE(params.ok()) << name;
  return params.ok() ? *params : std::string();
}

/// A hand-built tabular state over two raw features (identity scaling):
/// four stump LFs (feature 1 >= 1 and feature 0 >= 5 vote 1, feature
/// 1 <= -1 and feature 0 <= -5 vote 0) under `label_model`, no AL model.
SnapshotState TabularState(int num_classes, const std::string& label_model) {
  SnapshotState state;
  state.dataset = "hand-built";
  state.task = TaskType::kTabularClassification;
  state.num_classes = num_classes;
  state.feature_dim = 2;
  state.threshold = 0.9;
  state.means = {0.0, 0.0};
  state.inv_stddevs = {1.0, 1.0};
  state.lfs = {
      std::make_shared<ThresholdLf>(1, 1.0, StumpOp::kGreaterEqual, 1),
      std::make_shared<ThresholdLf>(1, -1.0, StumpOp::kLessEqual, 0),
      std::make_shared<ThresholdLf>(0, 5.0, StumpOp::kGreaterEqual, 1),
      std::make_shared<ThresholdLf>(0, -5.0, StumpOp::kLessEqual, 0)};
  state.label_model_name = label_model;
  state.label_model_params = FittedParams(label_model);
  return state;
}

TEST(SnapshotCreateTest, BinaryOnlyLabelModelsAreRefusedForThreeClasses) {
  for (const std::string name : {"metal", "metal-completion",
                                 "generative-dp"}) {
    EXPECT_TRUE(ModelSnapshot::Create(TabularState(2, name)).ok()) << name;
    Result<ModelSnapshot> three = ModelSnapshot::Create(TabularState(3, name));
    ASSERT_FALSE(three.ok()) << name;
    EXPECT_EQ(three.status().code(), StatusCode::kInvalidArgument) << name;
    const std::string& message = three.status().message();
    EXPECT_NE(message.find("'" + name + "'"), std::string::npos) << message;
    EXPECT_NE(message.find("3 classes"), std::string::npos) << message;
  }
}

TEST(SnapshotCreateTest, LoadedThreeClassMetalFileIsRefused) {
  Result<ModelSnapshot> two = ModelSnapshot::Create(TabularState(2, "metal"));
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  const std::string path = testing::TempDir() + "/metal3.snap";
  ASSERT_TRUE(SaveSnapshot(*two, path).ok());
  std::string content;
  {
    std::ifstream in(path);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  // Re-checksummed after the edit, so only Create can refuse the file.
  std::string body = content.substr(0, content.rfind(kChecksumPrefix));
  const size_t at = body.find("\nclasses 2\n");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, 11, "\nclasses 3\n");
  {
    std::ofstream out(path, std::ios::trunc);
    out << WithChecksumFooter(body);
  }
  Result<ModelSnapshot> loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("'metal'"), std::string::npos) << message;
  EXPECT_NE(message.find("3 classes"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(SnapshotCreateTest, LfsOutsideTheSnapshotAreRefused) {
  SnapshotState bad_label = TabularState(2, "majority-vote");
  bad_label.lfs[0] =
      std::make_shared<ThresholdLf>(1, 1.0, StumpOp::kGreaterEqual, 2);
  EXPECT_FALSE(ModelSnapshot::Create(std::move(bad_label)).ok());
  SnapshotState bad_feature = TabularState(2, "majority-vote");
  bad_feature.lfs[0] =
      std::make_shared<ThresholdLf>(2, 1.0, StumpOp::kGreaterEqual, 1);
  EXPECT_FALSE(ModelSnapshot::Create(std::move(bad_feature)).ok());
  SnapshotState bad_count = TabularState(2, "majority-vote");
  bad_count.label_model_name = "metal";  // params fitted on 4 LFs
  bad_count.label_model_params = FittedParams("metal");
  bad_count.lfs.pop_back();
  EXPECT_FALSE(ModelSnapshot::Create(std::move(bad_count)).ok());
}

TEST(SnapshotCreateTest, BatchRowsFailAndRouteIndependently) {
  SnapshotState state = TabularState(2, "majority-vote");
  // AL: logit(class 1) - logit(class 0) = 4 * feature 0, so feature 0 = 1
  // clears τ = 0.9 (p = 0.982) and feature 0 = 0 (p = 0.5) does not.
  Matrix al(2, 3);
  al(1, 0) = 4.0;
  state.al_weights = al;
  Result<ModelSnapshot> snapshot = ModelSnapshot::Create(std::move(state));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  const auto row = [](std::vector<double> features) {
    Example e;
    e.features = std::move(features);
    return e;
  };
  const Example al_row = row({1.0, 0.0});       // AL confident
  const Example lm_row = row({0.0, 2.0});       // AL below τ, an LF fires
  const Example reject_row = row({0.0, 0.0});   // AL below τ, all abstain
  const Example wide_row = row({0.0, 2.0, 1.0});  // width mismatch
  const std::vector<Example> batch = {al_row,   wide_row, reject_row, lm_row,
                                      wide_row, al_row,   lm_row,     reject_row};
  const std::vector<Result<ServedPrediction>> results =
      snapshot->PredictBatch(batch);
  ASSERT_EQ(results.size(), batch.size());
  int errors = 0;
  std::vector<int> by_source(3, 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Result<ServedPrediction> want = snapshot->Predict(batch[i]);
    ASSERT_EQ(results[i].ok(), want.ok()) << "row " << i;
    if (!want.ok()) {
      EXPECT_EQ(results[i].status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(results[i].status().message(), want.status().message());
      ++errors;
      continue;
    }
    EXPECT_EQ(results[i]->proba, want->proba) << "row " << i;
    EXPECT_EQ(results[i]->label, want->label) << "row " << i;
    EXPECT_EQ(results[i]->source, want->source) << "row " << i;
    ++by_source[static_cast<int>(want->source)];
  }
  EXPECT_EQ(errors, 2);
  EXPECT_EQ(by_source[static_cast<int>(LabelSource::kActiveLearning)], 2);
  EXPECT_EQ(by_source[static_cast<int>(LabelSource::kLabelModel)], 2);
  EXPECT_EQ(by_source[static_cast<int>(LabelSource::kRejected)], 2);
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2]->proba.empty());
  EXPECT_EQ(results[2]->label, kAbstain);
  EXPECT_EQ(results[3]->label, 1);  // feature 1 >= 1 votes class 1
}

TEST(LabelModelParamsTest, AllModelsRoundTripPredictionsBitwise) {
  const LabelMatrix matrix = SmallBinaryMatrix();
  const std::vector<std::string> names = {
      "majority-vote", "dawid-skene", "metal", "metal-completion",
      "generative-dp"};
  for (const std::string& name : names) {
    Result<std::unique_ptr<LabelModel>> fitted = MakeLabelModelByName(name);
    ASSERT_TRUE(fitted.ok()) << name;
    ASSERT_TRUE((*fitted)->Fit(matrix, 2).ok()) << name;
    Result<std::string> params = (*fitted)->SerializeParams();
    ASSERT_TRUE(params.ok()) << name << ": " << params.status().ToString();

    Result<std::unique_ptr<LabelModel>> restored = MakeLabelModelByName(name);
    ASSERT_TRUE(restored.ok()) << name;
    ASSERT_TRUE((*restored)->RestoreParams(*params).ok()) << name;
    for (int i = 0; i < matrix.num_rows(); ++i) {
      std::vector<int> row(matrix.num_cols());
      for (int j = 0; j < matrix.num_cols(); ++j) row[j] = matrix.At(i, j);
      Result<std::vector<double>> a = (*fitted)->PredictProba(row);
      Result<std::vector<double>> b = (*restored)->PredictProba(row);
      ASSERT_TRUE(a.ok() && b.ok()) << name;
      EXPECT_EQ(*a, *b) << name << " row " << i;
    }
    // Garbage params must be rejected, not half-applied.
    Result<std::unique_ptr<LabelModel>> fresh = MakeLabelModelByName(name);
    ASSERT_TRUE(fresh.ok());
    EXPECT_FALSE((*fresh)->RestoreParams("3 bogus").ok()) << name;
  }
}

}  // namespace
}  // namespace activedp
