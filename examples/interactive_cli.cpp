// A real human-in-the-loop labelling session on the terminal: ActiveDP's
// sampler picks query instances, YOU play the expert — choose one of the
// suggested keyword rules (or ask for a different query), and watch the
// label quality evolve. This is the workflow of the paper's Fig. 1 with the
// simulated user replaced by stdin.
//
// Build & run:  cmake --build build && ./build/examples/interactive_cli
// Non-interactive smoke test: pipe choices, e.g.
//   printf '1\n1\n1\n1\n1\nq\n' | ./build/examples/interactive_cli

#include <cstdio>
#include <iostream>
#include <algorithm>
#include <sstream>
#include <string>

#include "active/sampler.h"
#include "core/confusion.h"
#include "core/end_model.h"
#include "core/framework.h"
#include "core/label_pick.h"
#include "data/dataset_zoo.h"
#include "labelmodel/label_model.h"
#include "lf/lf_applier.h"
#include "lf/lf_candidates.h"
#include "util/rng.h"

using namespace activedp;  // NOLINT: example code

namespace {

/// Interactive state: mirrors ActiveDp's training loop, but the LF choice
/// comes from the terminal instead of the simulated user.
class Session {
 public:
  explicit Session(const DataSplit& split)
      : split_(&split),
        context_(FrameworkContext::Build(split)),
        lf_space_(BuildLfSpace(split.train)),
        sampler_(MakeSampler(SamplerType::kAdp)),
        rng_(123),
        train_matrix_(split.train.size()),
        queried_(split.train.size(), false),
        label_model_(MakeLabelModel(LabelModelType::kMetal)) {}

  /// Picks the next query instance with the ADP sampler.
  int NextQuery() {
    SamplerContext ctx;
    ctx.train = &split_->train;
    ctx.lm_proba = lm_ready_ ? &lm_proba_ : nullptr;
    ctx.lm_active = lm_ready_ ? &lm_active_ : nullptr;
    ctx.queried = &queried_;
    ctx.lf_space = lf_space_.get();
    const int q = sampler_->SelectQuery(ctx, rng_);
    if (q >= 0) queried_[q] = true;
    return q;
  }

  /// Candidate rules anchored at the query (system view: ranked by
  /// coverage, no ground-truth accuracy involved).
  std::vector<LfCandidate> Suggestions(int query, int k) {
    std::vector<LfCandidate> all = lf_space_->CandidatesFor(
        split_->train.example(query), /*min_accuracy=*/-1.0,
        /*target_label=*/-1);
    std::sort(all.begin(), all.end(),
              [](const LfCandidate& a, const LfCandidate& b) {
                return a.coverage > b.coverage;
              });
    if (static_cast<int>(all.size()) > k) all.resize(k);
    return all;
  }

  void Accept(const LfPtr& lf) {
    lfs_.push_back(lf);
    train_matrix_.AddColumn(ApplyLf(*lf, split_->train));
    if (label_model_->Fit(train_matrix_, context_.num_classes).ok()) {
      lm_ready_ = label_model_
                      ->PredictProbaTable(train_matrix_, context_.num_classes,
                                          &lm_proba_)
                      .ok();
      lm_active_.assign(train_matrix_.num_rows(), false);
      for (int i = 0; i < train_matrix_.num_rows(); ++i) {
        lm_active_[i] = train_matrix_.AnyActive(i);
      }
    }
  }

  void PrintStatus() {
    if (!lm_ready_) {
      std::printf("  (no label model yet)\n");
      return;
    }
    std::vector<std::vector<double>> soft(split_->train.size());
    for (int i = 0; i < split_->train.size(); ++i) {
      if (lm_active_[i]) soft[i] = lm_proba_.RowVector(i);
    }
    const LabelQuality quality = MeasureLabelQuality(soft, split_->train);
    double end_accuracy = 0.0;
    Result<LogisticRegression> model =
        TrainEndModel(context_.train_features, soft, context_.num_classes,
                      context_.feature_dim, EndModelOptions{});
    if (model.ok()) {
      end_accuracy = EvaluateAccuracy(*model, context_.test_features,
                                      context_.test_labels);
    }
    std::printf(
        "  %zu LFs | label accuracy %.3f | coverage %.3f | downstream test "
        "accuracy %.3f\n",
        lfs_.size(), quality.accuracy, quality.coverage, end_accuracy);
  }

  const Dataset& train() const { return split_->train; }

 private:
  const DataSplit* split_;
  FrameworkContext context_;
  std::unique_ptr<LfSpace> lf_space_;
  std::unique_ptr<Sampler> sampler_;
  Rng rng_;
  std::vector<LfPtr> lfs_;
  LabelMatrix train_matrix_;
  std::vector<bool> queried_;
  std::unique_ptr<LabelModel> label_model_;
  bool lm_ready_ = false;
  ProbaTable lm_proba_;
  std::vector<bool> lm_active_;
};

}  // namespace

int main() {
  Result<DataSplit> split = MakeZooDataset("youtube", 0.5, 99);
  if (!split.ok()) {
    std::fprintf(stderr, "%s\n", split.status().ToString().c_str());
    return 1;
  }
  Session session(*split);
  std::printf(
      "Interactive ActiveDP session (youtube-like data, %d train docs).\n"
      "For each query, pick a suggested rule by number, 's' to skip, 'q' to "
      "quit.\n\n",
      split->train.size());

  std::string line;
  while (true) {
    const int query = session.NextQuery();
    if (query < 0) break;
    const Example& x = session.train().example(query);
    std::printf("query: \"%.90s%s\"\n", x.text.c_str(),
                x.text.size() > 90 ? "..." : "");
    const std::vector<LfCandidate> suggestions = session.Suggestions(query, 5);
    for (size_t i = 0; i < suggestions.size(); ++i) {
      std::printf("  [%zu] %-24s (coverage %.1f%%)\n", i + 1,
                  suggestions[i].lf->Name().c_str(),
                  100.0 * suggestions[i].coverage);
    }
    std::printf("> ");
    if (!std::getline(std::cin, line)) break;
    if (line == "q" || line == "quit") break;
    if (line == "s" || line.empty()) continue;
    int choice = 0;
    std::istringstream(line) >> choice;
    if (choice >= 1 && choice <= static_cast<int>(suggestions.size())) {
      session.Accept(suggestions[choice - 1].lf);
      session.PrintStatus();
    } else {
      std::printf("  (unrecognized input, skipping)\n");
    }
  }
  std::printf("\nfinal state:\n");
  session.PrintStatus();
  return 0;
}
