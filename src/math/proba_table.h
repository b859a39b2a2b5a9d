#ifndef ACTIVEDP_MATH_PROBA_TABLE_H_
#define ACTIVEDP_MATH_PROBA_TABLE_H_

#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace activedp {

/// One model's class probabilities over a fixed row set: a rows x k
/// row-major buffer plus each row's Entropy(), computed once per refill.
///
/// A producer calls Resize, writes every row through mutable_row, then Seal,
/// which computes the entropies and stamps a generation id from a
/// process-wide counter (never 0); caches derived from a table (AdpSampler's
/// scores) key on it. SetRow edits one row of a hand-built table, keeping
/// its entropy exact; the generation becomes 0, which no cache trusts.
class ProbaTable {
 public:
  /// Starts a refill: contents unspecified, generation 0 until Seal.
  void Resize(int rows, int k);
  double* mutable_row(int i) {
    DCHECK(i >= 0 && i < rows_);
    return values_.data() + static_cast<size_t>(i) * k_;
  }
  /// Ends a refill: every row's entropy, then a fresh generation.
  void Seal();
  /// Overwrites row i (p.size() == k) and its entropy; generation becomes 0.
  void SetRow(int i, const std::vector<double>& p);

  int rows() const { return rows_; }
  int k() const { return k_; }
  uint64_t generation() const { return generation_; }
  const double* row(int i) const {
    DCHECK(i >= 0 && i < rows_);
    return values_.data() + static_cast<size_t>(i) * k_;
  }
  double entropy(int i) const { return entropy_[i]; }
  std::vector<double> RowVector(int i) const { return {row(i), row(i) + k_}; }
  /// One vector per row (the ConFusion / training-label representation).
  std::vector<std::vector<double>> ToRows() const;

 private:
  int rows_ = 0;
  int k_ = 0;
  std::vector<double> values_;
  std::vector<double> entropy_;
  uint64_t generation_ = 0;
};

/// Stage-boundary guard: OK iff every row is a finite normalized
/// distribution. The error names the stage and the first offending row.
Status ValidateProbaRows(const ProbaTable& table, const char* stage);

}  // namespace activedp

#endif  // ACTIVEDP_MATH_PROBA_TABLE_H_
