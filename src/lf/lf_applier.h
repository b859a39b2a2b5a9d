#ifndef ACTIVEDP_LF_LF_APPLIER_H_
#define ACTIVEDP_LF_LF_APPLIER_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "lf/label_function.h"
#include "math/csr_matrix.h"

namespace activedp {

/// One row of the weak-label matrix restricted to its non-abstain entries:
/// ascending column ids with the weak label each LF voted. Valid until the
/// owning LabelMatrix is next changed (LabelMatrix::Relabel keeps it valid).
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
/// (§2.1), stored as its non-abstain entries only: one row CSR view (each
/// row's firing LFs in ascending column order, labels as int8), which is
/// what the label models iterate, plus the LF pair-moment store
/// (PairMoments) derived from it. Keyword LFs fire on a few percent of rows,
/// so the matrix costs O(nnz) memory, not O(rows × LFs).
///
/// Both are kept current by every operation. AddColumn merges one LF's
/// outputs into the rows and the moments in O(n + nnz) time; SelectColumns
/// derives the child's rows and moments from the parent's; SelectRows slices
/// the rows and sums the child's moments once. Relabel changes the vote of
/// an entry that fires, so the rows keep their shape. Every moment is an
/// integer sum, so a derived or edited matrix equals one built from scratch
/// bitwise. The matrix has no lazily built state: const methods only read,
/// and a matrix shared between threads needs no synchronisation.
class LabelMatrix {
 public:
  explicit LabelMatrix(int num_rows)
      : num_rows_(num_rows), row_ptr_(num_rows + 1, 0) {}

  int num_rows() const { return num_rows_; }
  int num_cols() const { return moments_.num_cols(); }

  /// Appends one LF's outputs (length must equal num_rows) and drops the
  /// dense vector: only the rows it fires on are kept.
  void AddColumn(std::vector<int8_t> column);

  /// One entry; kAbstain where the LF does not fire. O(ActiveCount(row)).
  int At(int row, int col) const;

  /// Overwrites the vote of an entry that fires with another class (the
  /// Revising-LF baseline corrects LF outputs on human-labelled rows). The
  /// row keeps its shape, so views of it stay valid; only that row's pair
  /// moments change.
  void Relabel(int row, int col, int label);

  /// True if any LF fires on the row. O(1).
  bool AnyActive(int row) const { return ActiveCount(row) > 0; }

  /// Number of non-abstain entries in the row. O(1).
  int ActiveCount(int row) const {
    return static_cast<int>(row_ptr_[row + 1] - row_ptr_[row]);
  }

  /// Non-abstain entries of one row in ascending column order. Valid until
  /// the matrix is next changed by anything other than Relabel.
  ActiveRowView ActiveRow(int row) const;

  /// The LF pair-moment store.
  const SpinPairMoments& PairMoments() const { return moments_; }

  /// The spin encoding of the matrix as CSR: one row per example holding
  /// ToSpin(label) = +1 / -1 at each active column (abstains dropped).
  /// Binary tasks only (labels 0/1); multiclass callers stay on At().
  CsrMatrix SpinCsr() const;

  /// New matrix containing only the selected columns, in the given order
  /// (repeats allowed). Its rows and moments come from the parent's.
  LabelMatrix SelectColumns(const std::vector<int>& cols) const;

  /// New matrix containing only the selected rows, in the given order
  /// (repeats allowed).
  LabelMatrix SelectRows(const std::vector<int>& rows) const;

  /// Fraction of rows with at least one non-abstain entry. O(num_rows).
  double OverallCoverage() const;

 private:
  friend LabelMatrix ApplyLfs(const std::vector<LfPtr>& lfs,
                              const Dataset& dataset);

  /// Recomputes the moment store of `num_cols` columns from the rows.
  void SumMoments(int num_cols);
  /// Adds `column` (about to become column num_cols()) to the moment store,
  /// reading each firing row's earlier entries. `fires` = the rows it fires
  /// on, ascending.
  void AddColumnMoments(const std::vector<int8_t>& column,
                        const std::vector<int32_t>& fires);
  /// Inserts `column` (about to become column num_cols()) into the rows as
  /// the last entry of each row in `fires`, shifting them in place from the
  /// back.
  void MergeColumnIntoRows(const std::vector<int8_t>& column,
                           const std::vector<int32_t>& fires);

  int num_rows_;
  std::vector<int64_t> row_ptr_;  // num_rows_ + 1 row boundaries
  std::vector<int32_t> row_cols_;
  std::vector<int8_t> row_labels_;
  SpinPairMoments moments_;
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

/// Applies a set of LFs, producing the label matrix row by row. When every
/// LF is a KeywordLf, a row's entries come from a KeywordIndex lookup of its
/// tokens instead of per-LF virtual calls — the output is identical either
/// way. The pair moments are summed once at the end.
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
