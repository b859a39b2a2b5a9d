#ifndef ACTIVEDP_ML_FEATURIZER_H_
#define ACTIVEDP_ML_FEATURIZER_H_

#include <memory>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/example.h"
#include "math/csr_matrix.h"
#include "text/tfidf.h"

namespace activedp {

/// Maps examples to sparse feature vectors for the linear models. Fit on the
/// training split; applied to every split.
class Featurizer {
 public:
  virtual ~Featurizer() = default;
  /// Replaces `out` with the features of `example`, reusing its capacity.
  virtual void TransformInto(const Example& example,
                             SparseVector* out) const = 0;
  /// TransformInto into a fresh vector.
  SparseVector Transform(const Example& example) const {
    SparseVector out;
    TransformInto(example, &out);
    return out;
  }
  virtual int dim() const = 0;
};

/// TF-IDF features for text tasks.
class TextFeaturizer : public Featurizer {
 public:
  explicit TextFeaturizer(const Dataset& train)
      : tfidf_(TfidfFeaturizer::Fit(train)) {}
  /// Wraps an already-fitted (e.g. snapshot-restored) TF-IDF featurizer.
  explicit TextFeaturizer(TfidfFeaturizer tfidf) : tfidf_(std::move(tfidf)) {}

  void TransformInto(const Example& example,
                     SparseVector* out) const override {
    tfidf_.TransformInto(example, out);
  }
  int dim() const override { return tfidf_.dim(); }

  const TfidfFeaturizer& tfidf() const { return tfidf_; }

 private:
  TfidfFeaturizer tfidf_;
};

/// Standardized (z-scored) raw features for tabular tasks.
class TabularFeaturizer : public Featurizer {
 public:
  explicit TabularFeaturizer(const Dataset& train);

  /// Rebuilds a featurizer from exported state (parallel mean /
  /// inverse-stddev arrays).
  static TabularFeaturizer FromState(std::vector<double> means,
                                     std::vector<double> inv_stddevs);

  void TransformInto(const Example& example,
                     SparseVector* out) const override;
  int dim() const override { return static_cast<int>(means_.size()); }

  const std::vector<double>& means() const { return means_; }
  const std::vector<double>& inv_stddevs() const { return inv_stddevs_; }

 private:
  TabularFeaturizer() = default;

  std::vector<double> means_;
  std::vector<double> inv_stddevs_;
};

/// Builds the right featurizer for the dataset's task type.
std::unique_ptr<Featurizer> MakeFeaturizer(const Dataset& train);

/// Applies `featurizer` to every example of `dataset`.
std::vector<SparseVector> FeaturizeAll(const Featurizer& featurizer,
                                       const Dataset& dataset);

/// Applies `featurizer` to every example and packs the rows into one CSR
/// matrix (n x featurizer.dim()). Row r holds exactly the indices/values of
/// `featurizer.Transform(dataset.example(r))` in the same order, so any
/// per-row computation over the CSR form is bitwise identical to the
/// per-SparseVector path.
CsrMatrix FeaturizeAllCsr(const Featurizer& featurizer, const Dataset& dataset);

}  // namespace activedp

#endif  // ACTIVEDP_ML_FEATURIZER_H_
