#ifndef ACTIVEDP_TEXT_TFIDF_H_
#define ACTIVEDP_TEXT_TFIDF_H_

#include <vector>

#include "data/dataset.h"
#include "data/example.h"

namespace activedp {

struct TfidfOptions {
  /// Use 1 + log(tf) instead of raw term frequency.
  bool sublinear_tf = true;
  /// L2-normalize each document vector.
  bool l2_normalize = true;
};

/// TF-IDF featurizer over a dataset's vocabulary. Fit computes smoothed
/// inverse document frequencies on the training split; Transform maps an
/// example's term counts to a sparse vector of dimension vocabulary-size.
/// This is the text representation the paper's downstream model uses
/// (§4.1.3: "we extract the TF-IDF representation of the input text").
class TfidfFeaturizer {
 public:
  TfidfFeaturizer() = default;

  /// Computes idf from the training documents: idf = log((1+n)/(1+df)) + 1.
  static TfidfFeaturizer Fit(const Dataset& train, TfidfOptions options = {});

  /// Rebuilds a featurizer from exported state; Transform is bitwise
  /// identical to the featurizer the state came from.
  static TfidfFeaturizer FromState(TfidfOptions options,
                                   std::vector<double> idf);

  SparseVector Transform(const Example& example) const {
    SparseVector out;
    TransformInto(example, &out);
    return out;
  }
  /// Transform's vector written over `out`, reusing its capacity.
  void TransformInto(const Example& example, SparseVector* out) const;

  int dim() const { return static_cast<int>(idf_.size()); }

  double idf(int term) const { return idf_[term]; }
  const std::vector<double>& idf_values() const { return idf_; }
  const TfidfOptions& options() const { return options_; }

 private:
  TfidfOptions options_;
  std::vector<double> idf_;
};

}  // namespace activedp

#endif  // ACTIVEDP_TEXT_TFIDF_H_
