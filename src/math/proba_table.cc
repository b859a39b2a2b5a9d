#include "math/proba_table.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "math/vector_ops.h"
#include "util/numeric_guard.h"

namespace activedp {
namespace {

std::atomic<uint64_t> next_generation{1};

}  // namespace

void ProbaTable::Resize(int rows, int k) {
  CHECK_GE(rows, 0);
  CHECK_GT(k, 0);
  rows_ = rows;
  k_ = k;
  values_.resize(static_cast<size_t>(rows) * k);
  entropy_.resize(rows);
  generation_ = 0;
}

void ProbaTable::Seal() {
  for (int i = 0; i < rows_; ++i) entropy_[i] = Entropy(row(i), k_);
  generation_ = next_generation.fetch_add(1);
}

void ProbaTable::SetRow(int i, const std::vector<double>& p) {
  CHECK_EQ(static_cast<int>(p.size()), k_);
  std::copy(p.begin(), p.end(), mutable_row(i));
  entropy_[i] = Entropy(row(i), k_);
  generation_ = 0;
}

std::vector<std::vector<double>> ProbaTable::ToRows() const {
  std::vector<std::vector<double>> out(rows_);
  for (int i = 0; i < rows_; ++i) out[i] = RowVector(i);
  return out;
}

Status ValidateProbaRows(const ProbaTable& table, const char* stage) {
  for (int i = 0; i < table.rows(); ++i) {
    if (!IsProbabilityVector(table.row(i), table.k())) {
      return Status::Internal(std::string(stage) + ": row " +
                              std::to_string(i) +
                              " is not a finite normalized distribution");
    }
  }
  return Status::Ok();
}

}  // namespace activedp
