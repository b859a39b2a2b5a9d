#include "lf/lf_applier.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "util/check.h"
#include "util/trace.h"

namespace activedp {

namespace {

int Spin(int8_t label) { return label == 1 ? 1 : -1; }

}  // namespace

void LabelMatrix::AddColumn(std::vector<int8_t> column) {
  CHECK_EQ(static_cast<int>(column.size()), num_rows_);
  std::vector<int32_t> fires;  // rows the column fires on, ascending
  for (int i = 0; i < num_rows_; ++i) {
    if (column[i] != kAbstain) fires.push_back(i);
  }
  // The moment update reads the rows' earlier entries, so it runs before
  // the merge adds the new one.
  AddColumnMoments(column, fires);
  MergeColumnIntoRows(column, fires);
}

void LabelMatrix::AddColumnMoments(const std::vector<int8_t>& column,
                                   const std::vector<int32_t>& fires) {
  const int c = num_cols();
  const size_t run = moments_.sum_.size();
  moments_.sum_.resize(run + c, 0);
  moments_.count_.resize(run + c, 0);
  int32_t* sum = moments_.sum_.data() + run;
  int32_t* count = moments_.count_.data() + run;
  for (const int32_t i : fires) {
    const int s = Spin(column[i]);
    const ActiveRowView row = ActiveRow(i);
    for (int k = 0; k < row.nnz; ++k) {
      sum[row.cols[k]] += Spin(row.labels[k]) * s;
      ++count[row.cols[k]];
    }
  }
  moments_.active_.push_back(static_cast<int32_t>(fires.size()));
}

void LabelMatrix::MergeColumnIntoRows(const std::vector<int8_t>& column,
                                      const std::vector<int32_t>& fires) {
  // Runs after AddColumnMoments, so the new column is already counted.
  const int32_t col = num_cols() - 1;
  const int64_t added = static_cast<int64_t>(fires.size());
  row_cols_.resize(row_cols_.size() + added);
  row_labels_.resize(row_labels_.size() + added);
  // Back to front over the rows the column fires on. `shift` counts those
  // rows up to and including row f: every entry after row f's old end, up
  // to the previous firing row's, moves right by `shift` in one memmove,
  // and so do the row boundaries in between. Rows before the first firing
  // row keep their place.
  int64_t shift = added;
  int64_t run_end = row_ptr_[num_rows_];  // old end of the run to move
  int bound_end = num_rows_;              // last boundary of the run
  for (int64_t k = added - 1; k >= 0; --k) {
    const int f = fires[k];
    const int64_t end = row_ptr_[f + 1];
    for (int p = f + 1; p <= bound_end; ++p) row_ptr_[p] += shift;
    std::memmove(row_cols_.data() + end + shift, row_cols_.data() + end,
                 (run_end - end) * sizeof(int32_t));
    std::memmove(row_labels_.data() + end + shift, row_labels_.data() + end,
                 run_end - end);
    --shift;
    row_cols_[end + shift] = col;
    row_labels_[end + shift] = column[f];
    run_end = end;
    bound_end = f;
  }
}

int LabelMatrix::At(int row, int col) const {
  const ActiveRowView entries = ActiveRow(row);
  for (int e = 0; e < entries.nnz && entries.cols[e] <= col; ++e) {
    if (entries.cols[e] == col) return entries.labels[e];
  }
  return kAbstain;
}

void LabelMatrix::Relabel(int row, int col, int label) {
  CHECK(label >= 0 && label <= std::numeric_limits<int8_t>::max())
      << "label " << label;
  const int64_t begin = row_ptr_[row];
  const int64_t end = row_ptr_[row + 1];
  int64_t at = begin;
  while (at < end && row_cols_[at] != col) ++at;
  CHECK(at < end) << "Relabel(" << row << ", " << col
                  << ") of an entry that abstains";
  const int delta = Spin(static_cast<int8_t>(label)) - Spin(row_labels_[at]);
  row_labels_[at] = static_cast<int8_t>(label);
  if (delta == 0) return;
  for (int64_t e = begin; e < end; ++e) {
    if (e == at) continue;
    moments_.sum_[SpinPairMoments::Index(col, row_cols_[e])] +=
        delta * Spin(row_labels_[e]);
  }
}

ActiveRowView LabelMatrix::ActiveRow(int row) const {
  DCHECK(row >= 0 && row < num_rows_);
  ActiveRowView view;
  view.cols = row_cols_.data() + row_ptr_[row];
  view.labels = row_labels_.data() + row_ptr_[row];
  view.nnz = static_cast<int>(row_ptr_[row + 1] - row_ptr_[row]);
  return view;
}

void LabelMatrix::SumMoments(int num_cols) {
  moments_.sum_.assign(SpinPairMoments::Index(num_cols, 0), 0);
  moments_.count_.assign(moments_.sum_.size(), 0);
  moments_.active_.assign(num_cols, 0);
  for (int i = 0; i < num_rows_; ++i) {
    const ActiveRowView row = ActiveRow(i);
    for (int b = 0; b < row.nnz; ++b) {
      const int sb = Spin(row.labels[b]);
      ++moments_.active_[row.cols[b]];
      // The row's earlier columns a < b: one run of the packed triangle.
      const size_t run = SpinPairMoments::Index(row.cols[b], 0);
      for (int a = 0; a < b; ++a) {
        moments_.sum_[run + row.cols[a]] += Spin(row.labels[a]) * sb;
        ++moments_.count_[run + row.cols[a]];
      }
    }
  }
}

CsrMatrix LabelMatrix::SpinCsr() const {
  CsrMatrix out(num_rows_, num_cols());
  out.ReserveNnz(row_ptr_[num_rows_]);
  std::vector<double> spins;
  for (int i = 0; i < num_rows_; ++i) {
    const ActiveRowView row = ActiveRow(i);
    spins.resize(row.nnz);
    for (int k = 0; k < row.nnz; ++k) {
      spins[k] = row.labels[k] == 1 ? 1.0 : -1.0;
    }
    out.AppendRow(row.cols, spins.data(), row.nnz);
  }
  return out;
}

LabelMatrix LabelMatrix::SelectColumns(const std::vector<int>& cols) const {
  const int k = static_cast<int>(cols.size());
  // Child positions of each parent column as a linked list (head/next), so
  // a column selected twice lands at both positions.
  std::vector<int32_t> head(num_cols(), -1), next(k, -1);
  bool ascending = true;
  for (int c = k - 1; c >= 0; --c) {
    CHECK_GE(cols[c], 0);
    CHECK_LT(cols[c], num_cols());
    next[c] = head[cols[c]];
    head[cols[c]] = c;
    if (c + 1 < k && cols[c] >= cols[c + 1]) ascending = false;
  }
  // Every column in order: the child is a copy.
  if (ascending && k == num_cols()) return *this;

  // Rows: count, then fill. An ascending selection maps each row's
  // ascending parent columns to ascending child positions; otherwise each
  // row's entries are sorted by position afterwards.
  LabelMatrix out(num_rows_);
  int64_t total = 0;
  for (int i = 0; i < num_rows_; ++i) {
    out.row_ptr_[i] = total;
    const ActiveRowView row = ActiveRow(i);
    for (int e = 0; e < row.nnz; ++e) {
      for (int32_t c = head[row.cols[e]]; c >= 0; c = next[c]) ++total;
    }
  }
  out.row_ptr_[num_rows_] = total;
  out.row_cols_.resize(total);
  out.row_labels_.resize(total);
  for (int i = 0; i < num_rows_; ++i) {
    const int64_t begin = out.row_ptr_[i];
    const int64_t end = out.row_ptr_[i + 1];
    if (begin == end) continue;
    const ActiveRowView row = ActiveRow(i);
    int64_t f = begin;
    for (int e = 0; e < row.nnz; ++e) {
      for (int32_t c = head[row.cols[e]]; c >= 0; c = next[c]) {
        out.row_cols_[f] = c;
        out.row_labels_[f++] = row.labels[e];
      }
    }
    if (ascending) continue;
    // Insertion sort of the row's (position, label) pairs by position.
    for (int64_t e = begin + 1; e < end; ++e) {
      const int32_t c = out.row_cols_[e];
      const int8_t label = out.row_labels_[e];
      for (f = e; f > begin && out.row_cols_[f - 1] > c; --f) {
        out.row_cols_[f] = out.row_cols_[f - 1];
        out.row_labels_[f] = out.row_labels_[f - 1];
      }
      out.row_cols_[f] = c;
      out.row_labels_[f] = label;
    }
  }

  SpinPairMoments& child = out.moments_;
  child.sum_.reserve(SpinPairMoments::Index(k, 0));
  child.count_.reserve(child.sum_.capacity());
  for (int a = 0; a < k; ++a) {
    child.active_.push_back(moments_.Active(cols[a]));
    for (int b = 0; b < a; ++b) {
      child.sum_.push_back(moments_.Sum(cols[a], cols[b]));
      child.count_.push_back(moments_.Count(cols[a], cols[b]));
    }
  }
  return out;
}

LabelMatrix LabelMatrix::SelectRows(const std::vector<int>& rows) const {
  const int k = static_cast<int>(rows.size());
  LabelMatrix out(k);
  int64_t total = 0;
  for (int i = 0; i < k; ++i) {
    CHECK_GE(rows[i], 0);
    CHECK_LT(rows[i], num_rows_);
    out.row_ptr_[i] = total;
    total += ActiveCount(rows[i]);
  }
  out.row_ptr_[k] = total;
  out.row_cols_.resize(total);
  out.row_labels_.resize(total);
  for (int i = 0; i < k; ++i) {
    const ActiveRowView row = ActiveRow(rows[i]);
    std::copy(row.cols, row.cols + row.nnz,
              out.row_cols_.begin() + out.row_ptr_[i]);
    std::copy(row.labels, row.labels + row.nnz,
              out.row_labels_.begin() + out.row_ptr_[i]);
  }
  out.SumMoments(num_cols());
  return out;
}

double LabelMatrix::OverallCoverage() const {
  if (num_rows_ == 0) return 0.0;
  int active = 0;
  for (int i = 0; i < num_rows_; ++i) {
    if (AnyActive(i)) ++active;
  }
  return static_cast<double>(active) / num_rows_;
}

std::vector<int8_t> ApplyLf(const LabelFunction& lf, const Dataset& dataset) {
  const int n = dataset.size();
  std::vector<int8_t> out(n);
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<int8_t>(lf.Apply(dataset.example(i)));
  }
  return out;
}

std::optional<KeywordIndex> KeywordIndex::Build(
    const std::vector<LfPtr>& lfs) {
  std::vector<const KeywordLf*> keyword(lfs.size());
  for (size_t j = 0; j < lfs.size(); ++j) {
    keyword[j] = dynamic_cast<const KeywordLf*>(lfs[j].get());
    if (keyword[j] == nullptr) return std::nullopt;
  }
  KeywordIndex index;
  if (keyword.empty()) return index;
  int64_t min_token = keyword[0]->token_id(), max_token = min_token;
  for (const KeywordLf* kw : keyword) {
    min_token = std::min<int64_t>(min_token, kw->token_id());
    max_token = std::max<int64_t>(max_token, kw->token_id());
  }
  index.min_token_ = static_cast<int32_t>(min_token);
  index.num_tokens_ = static_cast<uint32_t>(max_token - min_token + 1);
  // Counting sort by token; visiting the LFs in column order leaves each
  // token's run in ascending column order.
  index.offsets_.assign(index.num_tokens_ + 1, 0);
  for (const KeywordLf* kw : keyword) {
    ++index.offsets_[kw->token_id() - index.min_token_ + 1];
  }
  for (uint32_t t = 0; t < index.num_tokens_; ++t) {
    index.offsets_[t + 1] += index.offsets_[t];
  }
  index.cols_.resize(keyword.size());
  index.labels_.resize(keyword.size());
  std::vector<int32_t> cursor(index.offsets_.begin(), index.offsets_.end() - 1);
  for (size_t j = 0; j < keyword.size(); ++j) {
    const int32_t at = cursor[keyword[j]->token_id() - index.min_token_]++;
    index.cols_[at] = static_cast<int32_t>(j);
    index.labels_[at] = static_cast<int8_t>(keyword[j]->label());
  }
  return index;
}

void KeywordIndex::FiringLfs(const Example& example,
                             std::vector<int32_t>* cols,
                             std::vector<int8_t>* labels) const {
  cols->clear();
  labels->clear();
  for (const auto& [token, count] : example.term_counts) {
    (void)count;  // presence decides, matching Example::HasToken
    const ActiveRowView hits = Find(token);
    for (int e = 0; e < hits.nnz; ++e) {
      // Insertion by column: a row meets only a few LFs.
      const int32_t col = hits.cols[e];
      size_t at = cols->size();
      while (at > 0 && (*cols)[at - 1] > col) --at;
      if (at > 0 && (*cols)[at - 1] == col) continue;  // token listed twice
      cols->insert(cols->begin() + at, col);
      labels->insert(labels->begin() + at, hits.labels[e]);
    }
  }
}

LabelMatrix ApplyLfs(const std::vector<LfPtr>& lfs, const Dataset& dataset) {
  TraceSpan span("lf.apply_all");
  span.AddArg("lfs", static_cast<int64_t>(lfs.size()));
  span.AddArg("rows", dataset.size());
  const int n = dataset.size();
  LabelMatrix matrix(n);
  const std::optional<KeywordIndex> index = KeywordIndex::Build(lfs);
  std::vector<int32_t> cols;
  std::vector<int8_t> labels;
  for (int i = 0; i < n; ++i) {
    const Example& example = dataset.example(i);
    if (index.has_value()) {
      index->FiringLfs(example, &cols, &labels);
    } else {
      cols.clear();
      labels.clear();
      for (size_t j = 0; j < lfs.size(); ++j) {
        const int label = lfs[j]->Apply(example);
        if (label == kAbstain) continue;
        cols.push_back(static_cast<int32_t>(j));
        labels.push_back(static_cast<int8_t>(label));
      }
    }
    matrix.row_cols_.insert(matrix.row_cols_.end(), cols.begin(), cols.end());
    matrix.row_labels_.insert(matrix.row_labels_.end(), labels.begin(),
                              labels.end());
    matrix.row_ptr_[i + 1] = static_cast<int64_t>(matrix.row_cols_.size());
  }
  matrix.SumMoments(static_cast<int>(lfs.size()));
  return matrix;
}

LfColumnStats ComputeColumnStats(const std::vector<int8_t>& column,
                                 const std::vector<int>& labels) {
  CHECK_EQ(column.size(), labels.size());
  LfColumnStats stats;
  int correct = 0;
  for (size_t i = 0; i < column.size(); ++i) {
    if (column[i] == kAbstain) continue;
    ++stats.activations;
    if (column[i] == labels[i]) ++correct;
  }
  if (!column.empty()) {
    stats.coverage = static_cast<double>(stats.activations) / column.size();
  }
  if (stats.activations > 0) {
    stats.accuracy = static_cast<double>(correct) / stats.activations;
  }
  return stats;
}

}  // namespace activedp
