#ifndef ACTIVEDP_LF_LF_APPLIER_H_
#define ACTIVEDP_LF_LF_APPLIER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "lf/label_function.h"
#include "math/csr_matrix.h"

namespace activedp {

/// One row of the weak-label matrix restricted to its non-abstain entries:
/// ascending column ids with the weak label each LF voted. Valid until the
/// owning LabelMatrix is next mutated.
struct ActiveRowView {
  const int32_t* cols = nullptr;
  const int8_t* labels = nullptr;
  int nnz = 0;
};

/// Exact spin co-activation moments of every LF pair of a label matrix,
/// with labels mapped to spins as in LabelMatrix::SpinCsr (class 1 -> +1,
/// any other class -> -1, abstain -> 0). For LFs a != b, Sum(a, b) is
/// Σ_i s_ia·s_ib over the rows where both fire and Count(a, b) the number of
/// such rows; on the diagonal both equal Active(a), the column's activation
/// count, so Sum is the full Gram matrix SᵀS of the spin matrix. Every entry
/// is an integer, so a store maintained column by column equals one built
/// from scratch bitwise. This is the one moment computation the MeTaL
/// estimators (MetalModel, MetalCompletionModel) read.
class SpinPairMoments {
 public:
  int num_cols() const { return static_cast<int>(active_.size()); }
  int Active(int a) const { return active_[a]; }
  int Sum(int a, int b) const {
    return a == b ? active_[a] : sum_[Index(a, b)];
  }
  int Count(int a, int b) const {
    return a == b ? active_[a] : count_[Index(a, b)];
  }
  bool operator==(const SpinPairMoments& other) const = default;

 private:
  friend class LabelMatrix;
  /// Packed strict lower triangle, row by row: column c's pairs with the
  /// columns before it form one contiguous run starting at Index(c, 0)
  /// (which is also the pair count of c columns), so appending a column
  /// appends one run.
  static size_t Index(int a, int b) {
    if (a < b) std::swap(a, b);
    return static_cast<size_t>(a) * (a - 1) / 2 + b;
  }
  std::vector<int32_t> sum_;
  std::vector<int32_t> count_;
  std::vector<int32_t> active_;
};

/// The weak-label matrix W with W[i][j] = λ_j(x_i) ∈ {kAbstain, 0..C-1}
/// (§2.1). Stored column-major (one column per LF) because frameworks add
/// one LF per iteration; entries are int8 to keep full-scale matrices small.
/// Columns are shared copy-on-write, so SelectColumns copies no column.
///
/// Since most entries are abstains, the matrix also maintains a per-row
/// active count (O(1) AnyActive, O(n) coverage), a row CSR view of the
/// non-abstain entries (ActiveRow), which is what the label models iterate,
/// and the LF pair-moment store (PairMoments). Both caches are built lazily
/// on first use and from then on kept current: AddColumn merges the new
/// column into them in O(n + nnz) time, SelectColumns derives the child's
/// view and moments from the parent's, and SelectRows the child's view.
/// Only Set invalidates them.
///
/// Thread rule: the lazy builds (EnsureRows, PairMoments, and the first
/// SelectColumns / SelectRows of a matrix) write the caches, so they run on
/// the owning thread before any other thread reads ActiveRow; reads
/// afterwards are safe from any thread.
class LabelMatrix {
 public:
  explicit LabelMatrix(int num_rows)
      : num_rows_(num_rows), active_count_(num_rows, 0) {}

  int num_rows() const { return num_rows_; }
  int num_cols() const { return static_cast<int>(columns_.size()); }

  /// Appends one LF's outputs (length must equal num_rows). Built caches are
  /// updated from the column's non-abstain rows, not rebuilt.
  void AddColumn(std::vector<int8_t> column);

  int At(int row, int col) const { return (*columns_[col])[row]; }

  /// Overwrites one entry (used by the Revising-LF baseline, which corrects
  /// LF outputs on human-labelled instances). Drops the row view and the
  /// moment store; the next use rebuilds them in full.
  void Set(int row, int col, int value);

  const std::vector<int8_t>& column(int col) const { return *columns_[col]; }

  /// Weak labels of one row across all columns.
  std::vector<int> Row(int row) const;

  /// Weak labels of one row restricted to `cols`.
  std::vector<int> Row(int row, const std::vector<int>& cols) const;

  /// True if any LF fires on the row (optionally restricted to `cols`).
  /// The all-columns overload is O(1) via the maintained active counts.
  bool AnyActive(int row) const { return active_count_[row] > 0; }
  bool AnyActive(int row, const std::vector<int>& cols) const;

  /// Number of non-abstain entries in the row. O(1).
  int ActiveCount(int row) const { return active_count_[row]; }

  /// Builds the row-major CSR view of non-abstain entries if it is not
  /// built yet (see the thread rule above).
  void EnsureRows() const;

  /// Non-abstain entries of one row in ascending column order. Requires a
  /// prior EnsureRows() since the last Set().
  ActiveRowView ActiveRow(int row) const;

  /// The LF pair-moment store, built from the row view on first request
  /// (see the thread rule above).
  const SpinPairMoments& PairMoments() const;

  /// The spin encoding of the matrix as CSR: one row per example holding
  /// ToSpin(label) = +1 / -1 at each active column (abstains dropped).
  /// Binary tasks only (labels 0/1); multiclass callers stay on At().
  CsrMatrix SpinCsr() const;

  /// New matrix containing only the selected columns, in the given order
  /// (repeats allowed). Shares the columns; the child's row view and moment
  /// store come from the parent's (the parent's are built first if needed).
  LabelMatrix SelectColumns(const std::vector<int>& cols) const;

  /// New matrix containing only the selected rows, in the given order. The
  /// child's row view is sliced from the parent's; its columns are
  /// scattered from that view.
  LabelMatrix SelectRows(const std::vector<int>& rows) const;

  /// Fraction of rows with at least one non-abstain entry. O(num_rows).
  double OverallCoverage() const;

 private:
  /// Adds `column` (about to become column num_cols()) to the built moment
  /// store, reading each firing row's earlier entries from the row view.
  /// `fires` = the rows it fires on, ascending.
  void AddColumnMoments(const std::vector<int8_t>& column,
                        const std::vector<int32_t>& fires) const;
  /// Inserts `column` (about to become column num_cols()) into the built row
  /// view as the last entry of each row in `fires`, shifting the view in
  /// place from the back.
  void MergeColumnIntoRows(const std::vector<int8_t>& column,
                           const std::vector<int32_t>& fires) const;

  int num_rows_;
  std::vector<std::shared_ptr<std::vector<int8_t>>> columns_;
  std::vector<int32_t> active_count_;  // non-abstain entries per row

  // Lazily built CSR view over the non-abstain entries (see EnsureRows).
  mutable bool rows_built_ = false;
  mutable std::vector<int64_t> row_ptr_;
  mutable std::vector<int32_t> row_cols_;
  mutable std::vector<int8_t> row_labels_;
  // Lazily built pair moments; engaged only while rows_built_.
  mutable std::optional<SpinPairMoments> moments_;
};

/// Flat inverted index of a keyword-only LF set: token id -> the (column,
/// label) pairs of the LFs keyed on it, as one CSR table over the LFs' token
/// range, built once. A row's firing LFs are the entries of its own tokens,
/// so a row costs one array lookup per token instead of one Apply per LF.
/// Each KeywordLf owns one column and fires on token presence, so the
/// entries reproduce the per-LF Apply loop exactly.
class KeywordIndex {
 public:
  /// The index of `lfs` (column j = lfs[j]); nullopt when some LF is not a
  /// KeywordLf. An empty set gives an empty index.
  static std::optional<KeywordIndex> Build(const std::vector<LfPtr>& lfs);

  /// The LFs keyed on `token`, in ascending column order; empty for a
  /// token outside the table.
  ActiveRowView Find(int token) const {
    // Unsigned wrap-around sends every token below the range past the end.
    const uint32_t slot =
        static_cast<uint32_t>(token) - static_cast<uint32_t>(min_token_);
    if (slot >= num_tokens_) return {};
    const int32_t begin = offsets_[slot];
    return {cols_.data() + begin, labels_.data() + begin,
            offsets_[slot + 1] - begin};
  }

  /// Replaces `cols` / `labels` with the LFs that fire on `example`, in
  /// ascending column order (the order ActiveRowView requires). Reuses
  /// their capacity.
  void FiringLfs(const Example& example, std::vector<int32_t>* cols,
                 std::vector<int8_t>* labels) const;

 private:
  int32_t min_token_ = 0;
  uint32_t num_tokens_ = 0;
  std::vector<int32_t> offsets_;  // num_tokens_ + 1 run boundaries
  std::vector<int32_t> cols_;
  std::vector<int8_t> labels_;
};

/// Applies one LF to every example of `dataset`.
std::vector<int8_t> ApplyLf(const LabelFunction& lf, const Dataset& dataset);

/// Applies a set of LFs, producing the label matrix. When every LF is a
/// KeywordLf, fills the columns from a KeywordIndex in one pass over each
/// example's term counts instead of per-LF virtual calls — the output is
/// identical either way.
LabelMatrix ApplyLfs(const std::vector<LfPtr>& lfs, const Dataset& dataset);

/// Coverage and accuracy statistics of one LF column against ground truth.
struct LfColumnStats {
  int activations = 0;
  double coverage = 0.0;
  /// Accuracy over activated rows; 0 when never activated.
  double accuracy = 0.0;
};

LfColumnStats ComputeColumnStats(const std::vector<int8_t>& column,
                                 const std::vector<int>& labels);

}  // namespace activedp

#endif  // ACTIVEDP_LF_LF_APPLIER_H_
