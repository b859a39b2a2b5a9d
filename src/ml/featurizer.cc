#include "ml/featurizer.h"

#include <cmath>

#include "util/check.h"
#include "util/trace.h"

namespace activedp {

TabularFeaturizer::TabularFeaturizer(const Dataset& train) {
  CHECK_GT(train.size(), 0);
  const int d = static_cast<int>(train.example(0).features.size());
  means_.assign(d, 0.0);
  inv_stddevs_.assign(d, 1.0);
  for (const auto& e : train.examples()) {
    CHECK_EQ(static_cast<int>(e.features.size()), d);
    for (int j = 0; j < d; ++j) means_[j] += e.features[j];
  }
  for (double& m : means_) m /= train.size();
  std::vector<double> var(d, 0.0);
  for (const auto& e : train.examples()) {
    for (int j = 0; j < d; ++j) {
      const double delta = e.features[j] - means_[j];
      var[j] += delta * delta;
    }
  }
  for (int j = 0; j < d; ++j) {
    const double stddev = std::sqrt(var[j] / std::max(1, train.size() - 1));
    inv_stddevs_[j] = stddev > 1e-12 ? 1.0 / stddev : 1.0;
  }
}

TabularFeaturizer TabularFeaturizer::FromState(
    std::vector<double> means, std::vector<double> inv_stddevs) {
  CHECK_EQ(means.size(), inv_stddevs.size());
  TabularFeaturizer featurizer;
  featurizer.means_ = std::move(means);
  featurizer.inv_stddevs_ = std::move(inv_stddevs);
  return featurizer;
}

void TabularFeaturizer::TransformInto(const Example& example,
                                      SparseVector* out) const {
  const int d = dim();
  CHECK_EQ(static_cast<int>(example.features.size()), d);
  out->indices.clear();
  out->values.clear();
  out->indices.reserve(d);
  out->values.reserve(d);
  for (int j = 0; j < d; ++j) {
    out->PushBack(j, (example.features[j] - means_[j]) * inv_stddevs_[j]);
  }
}

std::unique_ptr<Featurizer> MakeFeaturizer(const Dataset& train) {
  if (train.meta().task == TaskType::kTextClassification) {
    return std::make_unique<TextFeaturizer>(train);
  }
  return std::make_unique<TabularFeaturizer>(train);
}

std::vector<SparseVector> FeaturizeAll(const Featurizer& featurizer,
                                       const Dataset& dataset) {
  const int n = dataset.size();
  TraceSpan span("featurize.all");
  span.AddArg("rows", n);
  std::vector<SparseVector> out(n);
  for (int i = 0; i < n; ++i) out[i] = featurizer.Transform(dataset.example(i));
  return out;
}

CsrMatrix FeaturizeAllCsr(const Featurizer& featurizer,
                          const Dataset& dataset) {
  CsrMatrix csr(dataset.size(), featurizer.dim());
  for (int i = 0; i < dataset.size(); ++i) {
    const SparseVector r = featurizer.Transform(dataset.example(i));
    csr.AppendRow(r.indices.data(), r.values.data(), r.nnz());
  }
  return csr;
}

}  // namespace activedp
