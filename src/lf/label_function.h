#ifndef ACTIVEDP_LF_LABEL_FUNCTION_H_
#define ACTIVEDP_LF_LABEL_FUNCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/example.h"
#include "util/result.h"

namespace activedp {

/// Output of a label function that declines to label an instance.
inline constexpr int kAbstain = -1;

/// A label function (LF): a weak supervision source that labels a subset of
/// instances and abstains elsewhere (§2.1). Implementations are immutable;
/// frameworks share them via LfPtr.
class LabelFunction {
 public:
  virtual ~LabelFunction() = default;

  /// The class this LF votes for when it fires.
  explicit LabelFunction(int label) : label_(label) {}

  /// Weak label for `example`: `label()` or kAbstain.
  virtual int Apply(const Example& example) const = 0;

  /// Human-readable description, e.g. "check -> SPAM".
  virtual std::string Name() const = 0;

  /// Stable identity string used to de-duplicate LFs across iterations.
  virtual std::string Key() const = 0;

  int label() const { return label_; }

 private:
  int label_;
};

using LfPtr = std::shared_ptr<const LabelFunction>;

/// Keyword LF for text tasks: votes `label` when the document contains the
/// keyword (by vocabulary id), abstains otherwise — the λ_{w,y} family of
/// §4.1.4.
class KeywordLf : public LabelFunction {
 public:
  KeywordLf(int token_id, std::string word, int label)
      : LabelFunction(label), token_id_(token_id), word_(std::move(word)) {}

  int Apply(const Example& example) const override {
    return example.HasToken(token_id_) ? label() : kAbstain;
  }
  std::string Name() const override;
  std::string Key() const override;

  int token_id() const { return token_id_; }
  const std::string& word() const { return word_; }

 private:
  int token_id_;
  std::string word_;
};

enum class StumpOp { kLessEqual, kGreaterEqual };

/// Decision-stump LF for tabular tasks: votes `label` when feature
/// `feature` satisfies (x_j <= v) or (x_j >= v), abstains otherwise — the
/// λ_{j,v,op,y} family of §4.1.4.
class ThresholdLf : public LabelFunction {
 public:
  ThresholdLf(int feature, double threshold, StumpOp op, int label)
      : LabelFunction(label),
        feature_(feature),
        threshold_(threshold),
        op_(op) {}

  int Apply(const Example& example) const override {
    const double v = example.features[feature_];
    const bool fires =
        op_ == StumpOp::kLessEqual ? v <= threshold_ : v >= threshold_;
    return fires ? label() : kAbstain;
  }
  std::string Name() const override;
  std::string Key() const override;

  int feature() const { return feature_; }
  double threshold() const { return threshold_; }
  StumpOp op() const { return op_; }

 private:
  int feature_;
  double threshold_;
  StumpOp op_;
};

/// Checks that every LF can run on the rows of a task with `num_classes`
/// classes and `feature_dim` features before any of them is applied: it
/// votes a class in [0, num_classes) (weak labels travel as int8, as in
/// LabelMatrix) and reads only what such a row carries — a keyword id inside
/// [0, feature_dim) and a stump feature inside a tabular row.
/// InvalidArgument naming the first LF that does not.
Status ValidateLfs(const std::vector<LfPtr>& lfs, int num_classes,
                   TaskType task, int feature_dim);

}  // namespace activedp

#endif  // ACTIVEDP_LF_LABEL_FUNCTION_H_
