#include "text/tfidf.h"

#include <array>
#include <cmath>

#include "util/check.h"
#include "util/trace.h"

namespace activedp {

TfidfFeaturizer TfidfFeaturizer::Fit(const Dataset& train,
                                     TfidfOptions options) {
  const int vocab_size = train.vocabulary().size();
  CHECK_GT(vocab_size, 0) << "TF-IDF requires a built vocabulary";
  const int n = train.size();
  TraceSpan span("tfidf.fit");
  span.AddArg("rows", n);
  span.AddArg("vocab", vocab_size);
  std::vector<int> df(vocab_size, 0);
  for (int i = 0; i < n; ++i) {
    for (const auto& [term, count] : train.example(i).term_counts) {
      if (term >= 0 && term < vocab_size) ++df[term];
    }
  }

  TfidfFeaturizer featurizer;
  featurizer.options_ = options;
  featurizer.idf_.resize(vocab_size);
  const double num_docs = static_cast<double>(n);
  for (int t = 0; t < vocab_size; ++t) {
    featurizer.idf_[t] = std::log((1.0 + num_docs) / (1.0 + df[t])) + 1.0;
  }
  return featurizer;
}

TfidfFeaturizer TfidfFeaturizer::FromState(TfidfOptions options,
                                           std::vector<double> idf) {
  TfidfFeaturizer featurizer;
  featurizer.options_ = options;
  featurizer.idf_ = std::move(idf);
  return featurizer;
}

void TfidfFeaturizer::TransformInto(const Example& example,
                                    SparseVector* out) const {
  // Term counts are almost always tiny integers and std::log dominates the
  // sublinear-tf cost, so 1 + log(k) is served from a table for small k.
  // Entries are computed with the same std::log call, so the output is
  // bitwise identical to the direct computation.
  static constexpr int kTfTableSize = 64;
  static const std::array<double, kTfTableSize> kSublinearTf = [] {
    std::array<double, kTfTableSize> table{};
    for (int k = 1; k < kTfTableSize; ++k) {
      table[k] = 1.0 + std::log(static_cast<double>(k));
    }
    return table;
  }();

  out->indices.clear();
  out->values.clear();
  out->indices.reserve(example.term_counts.size());
  out->values.reserve(example.term_counts.size());
  for (const auto& [term, count] : example.term_counts) {
    if (term < 0 || term >= dim()) continue;  // out-of-vocabulary
    if (count <= 0) continue;  // sublinear 1 + log(0) would give -inf
    double tf;
    if (options_.sublinear_tf) {
      tf = count < kTfTableSize ? kSublinearTf[count]
                                : 1.0 + std::log(static_cast<double>(count));
    } else {
      tf = static_cast<double>(count);
    }
    out->PushBack(term, tf * idf_[term]);
  }
  if (options_.l2_normalize) L2Normalize(*out);
}

}  // namespace activedp
