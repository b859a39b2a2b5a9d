// End-to-end determinism: every parallelized stage must produce bitwise
// identical results regardless of the compute-pool thread count. The chunked
// reductions are constructed so each value is accumulated in the same order
// as the serial code (see DESIGN.md "Parallelism & determinism"); this suite
// is the enforcement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic_text.h"
#include "graphical/graphical_lasso.h"
#include "lf/label_function.h"
#include "lf/lf_applier.h"
#include "labelmodel/metal_completion.h"
#include "labelmodel/metal_model.h"
#include "math/csr_matrix.h"
#include "math/matrix.h"
#include "ml/featurizer.h"
#include "ml/metrics.h"
#include "text/tfidf.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace activedp {
namespace {

// FNV-1a over raw bit patterns: any single-bit difference anywhere in the
// pipeline's numeric output changes the digest.
class BitHasher {
 public:
  void Add(double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    AddBits(bits);
  }
  void Add(int value) { AddBits(static_cast<uint64_t>(value)); }
  void Add(const std::vector<double>& values) {
    for (double v : values) Add(v);
  }
  void Add(const std::vector<std::vector<double>>& rows) {
    for (const auto& row : rows) Add(row);
  }
  void Add(const Matrix& m) {
    for (int r = 0; r < m.rows(); ++r) {
      for (int c = 0; c < m.cols(); ++c) Add(m(r, c));
    }
  }
  void Add(const SparseVector& v) {
    for (int k = 0; k < v.nnz(); ++k) {
      Add(v.indices[k]);
      Add(v.values[k]);
    }
  }
  void Add(const CsrMatrix& m) {
    for (int r = 0; r < m.rows(); ++r) {
      const int32_t* indices = m.RowIndices(r);
      const double* values = m.RowValues(r);
      for (int k = 0; k < m.RowNnz(r); ++k) {
        Add(static_cast<int>(indices[k]));
        Add(values[k]);
      }
    }
  }
  uint64_t digest() const { return hash_; }

 private:
  void AddBits(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Runs the full pipeline — synthetic corpus, TF-IDF features (per example
// and as CSR), LF matrix, the CSR spin Gram matrix, both MeTaL label models,
// spin covariance through Matrix ops, graphical lasso, metrics — and digests
// every stage's numeric output.
uint64_t RunPipelineDigest(uint64_t seed) {
  BitHasher hasher;

  SyntheticTextConfig config;
  config.num_examples = 400;
  config.num_classes = 2;
  config.signal_words_per_class = 24;
  config.weak_words_per_class = 24;
  config.background_words = 120;
  Rng rng(seed);
  const Dataset data = GenerateSyntheticText(config, rng);

  // Stage: TF-IDF fit + per-example featurization.
  const TextFeaturizer tfidf(data);
  const std::vector<SparseVector> features = FeaturizeAll(tfidf, data);
  for (const auto& f : features) hasher.Add(f);

  // Stage: the same featurization packed into one CSR matrix.
  hasher.Add(FeaturizeAllCsr(tfidf, data));

  // Stage: LF application. Keyword LFs over the most frequent vocab ids;
  // 12 LFs keeps the completion model on its matrix-completion path (m >= 8).
  std::vector<LfPtr> lfs;
  const int num_lfs = std::min(12, data.vocabulary().size());
  for (int id = 0; id < num_lfs; ++id) {
    lfs.push_back(std::make_shared<KeywordLf>(
        id, data.vocabulary().GetWord(id), id % config.num_classes));
  }
  const LabelMatrix matrix = ApplyLfs(lfs, data);
  for (int j = 0; j < matrix.num_cols(); ++j) {
    for (int8_t v : matrix.column(j)) hasher.Add(static_cast<int>(v));
  }

  // Stage: the spin Gram matrix straight off the CSR row view.
  hasher.Add(matrix.SpinCsr().SelfInnerProduct());

  // Stage: label models (pairwise-moment fit and matrix completion).
  MetalModel metal;
  EXPECT_TRUE(metal.Fit(matrix, config.num_classes).ok());
  const auto metal_proba = metal.PredictProbaAll(matrix);
  EXPECT_TRUE(metal_proba.ok());
  hasher.Add(*metal_proba);

  MetalCompletionModel completion;
  EXPECT_TRUE(completion.Fit(matrix, config.num_classes).ok());
  const auto completion_proba = completion.PredictProbaAll(matrix);
  EXPECT_TRUE(completion_proba.ok());
  hasher.Add(*completion_proba);

  // Stage: Matrix ops + graphical lasso over the LF spin covariance.
  const int n = matrix.num_rows();
  const int m = matrix.num_cols();
  Matrix spins(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      const int v = matrix.At(i, j);
      spins(i, j) = v < 0 ? 0.0 : (v == 1 ? 1.0 : -1.0);
    }
  }
  Matrix covariance =
      spins.Transpose().Multiply(spins).Scale(1.0 / n);
  for (int j = 0; j < m; ++j) covariance(j, j) += 0.1;
  hasher.Add(covariance);

  GraphicalLassoOptions glasso_options;
  glasso_options.max_iterations = 30;
  const auto glasso = GraphicalLasso(covariance, glasso_options);
  EXPECT_TRUE(glasso.ok());
  hasher.Add(glasso->precision);

  // Stage: metrics over the label-model predictions.
  const auto predictions = metal.PredictAll(matrix);
  EXPECT_TRUE(predictions.ok());
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) labels[i] = data.example(i).label;
  hasher.Add(Accuracy(*predictions, labels));
  const PrecisionRecallF1 prf = BinaryPrf(*predictions, labels, 1);
  hasher.Add(prf.precision);
  hasher.Add(prf.recall);
  hasher.Add(prf.f1);

  return hasher.digest();
}

TEST(DeterminismTest, PipelineBitwiseIdenticalAcrossThreadCounts) {
  // Run with the tracer armed: instrumentation must not perturb any numeric
  // result, at any thread count (the RunTrace cost/determinism contract).
  Tracer::Global().Enable();
  for (const uint64_t seed : {11ULL, 23ULL, 47ULL}) {
    SetComputePoolThreads(1);
    const uint64_t serial = RunPipelineDigest(seed);

    SetComputePoolThreads(4);
    const uint64_t pooled = RunPipelineDigest(seed);
    SetComputePoolThreads(1);

    EXPECT_EQ(serial, pooled) << "seed " << seed;
    // And re-running serially reproduces the digest (the pipeline itself is
    // deterministic, so a digest mismatch above isolates the thread count).
    EXPECT_EQ(serial, RunPipelineDigest(seed)) << "seed " << seed;
  }
  Tracer::Global().Disable();
}

}  // namespace
}  // namespace activedp
