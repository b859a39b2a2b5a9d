#include "lf/label_function.h"

#include <cstdint>
#include <limits>

#include "util/string_util.h"

namespace activedp {

std::string KeywordLf::Name() const {
  return word_ + " -> class" + std::to_string(label());
}

std::string KeywordLf::Key() const {
  return "kw:" + std::to_string(token_id_) + ":" + std::to_string(label());
}

std::string ThresholdLf::Name() const {
  const char* op = op_ == StumpOp::kLessEqual ? "<=" : ">=";
  return "f" + std::to_string(feature_) + " " + op + " " +
         FormatDouble(threshold_, 4) + " -> class" + std::to_string(label());
}

std::string ThresholdLf::Key() const {
  const char* op = op_ == StumpOp::kLessEqual ? "le" : "ge";
  return "st:" + std::to_string(feature_) + ":" + op + ":" +
         FormatDouble(threshold_, 6) + ":" + std::to_string(label());
}

Status ValidateLfs(const std::vector<LfPtr>& lfs, int num_classes,
                   TaskType task, int feature_dim) {
  for (size_t j = 0; j < lfs.size(); ++j) {
    const LabelFunction& lf = *lfs[j];
    const std::string where = "LF " + std::to_string(j) + " (" + lf.Name() + ")";
    if (lf.label() < 0 || lf.label() >= num_classes ||
        lf.label() > std::numeric_limits<int8_t>::max()) {
      return Status::InvalidArgument(where + " votes class " +
                                     std::to_string(lf.label()) + " of " +
                                     std::to_string(num_classes));
    }
    if (const auto* kw = dynamic_cast<const KeywordLf*>(&lf)) {
      if (kw->token_id() < 0 || kw->token_id() >= feature_dim) {
        return Status::InvalidArgument(
            where + " reads token " + std::to_string(kw->token_id()) +
            " outside feature_dim " + std::to_string(feature_dim));
      }
    } else if (const auto* stump = dynamic_cast<const ThresholdLf*>(&lf)) {
      if (task != TaskType::kTabularClassification || stump->feature() < 0 ||
          stump->feature() >= feature_dim) {
        return Status::InvalidArgument(
            where + " reads feature " + std::to_string(stump->feature()) +
            ", which a row of this task does not have");
      }
    }
  }
  return Status::Ok();
}

}  // namespace activedp
