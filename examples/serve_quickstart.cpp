// Serving quickstart: trains a small ActiveDP pipeline, exports the result
// as an immutable ModelSnapshot, persists it to disk (atomic write +
// checksum), reloads it, and serves predictions through the batching
// PredictionService — including a live hot swap to a newer snapshot.
//
// Build & run:  cmake --build build && ./build/examples/serve_quickstart

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/activedp.h"
#include "core/framework.h"
#include "data/dataset_zoo.h"
#include "serve/model_snapshot.h"
#include "serve/prediction_service.h"
#include "serve/snapshot_export.h"
#include "serve/snapshot_io.h"

using namespace activedp;  // NOLINT: example code

int main() {
  // 1. Train: same workflow as examples/quickstart, smaller budget.
  Result<DataSplit> split = MakeZooDataset("youtube", /*scale=*/0.25,
                                           /*seed=*/42);
  if (!split.ok()) {
    std::fprintf(stderr, "dataset: %s\n", split.status().ToString().c_str());
    return 1;
  }
  FrameworkContext context = FrameworkContext::Build(*split);
  ActiveDpOptions options;
  options.seed = 7;
  ActiveDp pipeline(context, options);
  for (int t = 0; t < 30; ++t) {
    if (!pipeline.Step().ok()) break;
  }

  // 2. Export: freeze the featurizer, selected LFs, label-model parameters,
  //    AL/end-model weights and the tuned ConFusion threshold into one
  //    immutable, versioned snapshot.
  Result<ModelSnapshot> exported = ExportSnapshot(pipeline, context);
  if (!exported.ok()) {
    std::fprintf(stderr, "export: %s\n",
                 exported.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot: %d classes, dim %d, %d LFs, tau=%.3f\n",
              exported->num_classes(), exported->feature_dim(),
              static_cast<int>(exported->state().lfs.size()),
              exported->threshold());

  // 3. Persist + reload. SaveSnapshot writes atomically with a checksum
  //    footer; LoadSnapshot rejects corrupt, truncated or future-version
  //    files. The loaded snapshot predicts bitwise-identically.
  const std::string path = "quickstart.snap";
  if (Status saved = SaveSnapshot(*exported, path); !saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  Result<ModelSnapshot> loaded = LoadSnapshot(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("saved and reloaded %s\n", path.c_str());

  // 4. Serve. The service batches concurrent requests (an idle dispatcher
  //    takes whatever is queued, up to the batch size) and runs each batch
  //    inline via PredictBatch. Served predictions are bitwise identical to
  //    offline ConFusion aggregation at any batch size.
  auto snapshot =
      std::make_shared<const ModelSnapshot>(std::move(*loaded));
  PredictionService service;
  service.LoadSnapshot(snapshot);

  // Raw text goes through the snapshot's own featurizer/tokenizer state —
  // exactly the same vocabulary and TF-IDF statistics as at training time.
  Result<Example> request =
      snapshot->MakeTextExample(split->train.example(0).text);
  if (!request.ok()) {
    std::fprintf(stderr, "featurize: %s\n",
                 request.status().ToString().c_str());
    return 1;
  }
  const ServeReply response = service.Predict({.example = *request});
  if (!response.ok()) {
    std::fprintf(stderr, "predict: %s\n", response.status.ToString().c_str());
    return 1;
  }
  const ServedPrediction& served = response.prediction;
  if (served.label == kAbstain) {
    std::printf("served: abstain (ConFusion confidence below tau)\n");
  } else {
    std::printf("served: label=%d source=%d proba=[", served.label,
                static_cast<int>(served.source));
    for (size_t c = 0; c < served.proba.size(); ++c) {
      std::printf("%s%.3f", c ? ", " : "", served.proba[c]);
    }
    std::printf("]\n");
  }

  // A burst of async requests: those queued while a batch computes form the
  // next batch.
  std::vector<std::future<ServeReply>> futures;
  const int burst = std::min(split->train.size(), 64);
  for (int i = 0; i < burst; ++i) {
    futures.push_back(
        service.PredictAsync({.example = split->train.example(i)}));
  }
  int ok = 0;
  for (auto& future : futures) ok += future.get().ok() ? 1 : 0;
  std::printf("burst: %d/%d requests served\n", ok, burst);

  // 5. Hot swap: train further, export a newer snapshot, publish it while
  //    the service stays up. In-flight batches drain on the old snapshot;
  //    new batches use the new one.
  for (int t = 0; t < 15; ++t) {
    if (!pipeline.Step().ok()) break;
  }
  Result<ModelSnapshot> updated = ExportSnapshot(pipeline, context);
  if (updated.ok()) {
    service.LoadSnapshot(
        std::make_shared<const ModelSnapshot>(std::move(*updated)));
    const ServeReply after = service.Predict({.example = *request});
    if (after.ok()) {
      std::printf("after hot swap: %s (no restart, no dropped requests)\n",
                  after.prediction.label == kAbstain
                      ? "abstain"
                      : ("label=" + std::to_string(after.prediction.label))
                            .c_str());
    }
  }
  std::remove(path.c_str());
  return 0;
}
