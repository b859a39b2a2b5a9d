#ifndef ACTIVEDP_CORE_SPEC_BUILDER_H_
#define ACTIVEDP_CORE_SPEC_BUILDER_H_

#include <cstdint>
#include <string>

#include "core/experiment.h"
#include "util/flags.h"

namespace activedp {

/// Fluent assembly of an ExperimentSpec, replacing the field-by-field
/// copy-paste every bench binary used to carry. Typical use:
///
///   FlagParser flags;
///   ExperimentSpecBuilder::RegisterCommonFlags(flags);
///   ... flags.Parse(argc, argv) ...
///   ExperimentSpec spec = ExperimentSpecBuilder::FromFlags(flags)
///                             .Dataset("youtube")
///                             .Framework(FrameworkType::kActiveDp)
///                             .Build();
///
/// Every setter returns *this, so chains read as one declaration. Build()
/// copies, so one builder can stamp out a grid of related specs (the
/// bench tables mutate dataset/framework/sampler between runs).
class ExperimentSpecBuilder {
 public:
  ExperimentSpecBuilder() = default;
  /// Starts from an existing spec (escape hatch for uncommon fields).
  explicit ExperimentSpecBuilder(ExperimentSpec spec);

  ExperimentSpecBuilder& Dataset(std::string name);
  ExperimentSpecBuilder& Framework(FrameworkType framework);
  ExperimentSpecBuilder& Iterations(int iterations);
  ExperimentSpecBuilder& EvalEvery(int eval_every);
  ExperimentSpecBuilder& Seeds(int num_seeds);
  ExperimentSpecBuilder& BaseSeed(uint64_t base_seed);
  ExperimentSpecBuilder& SeedThreads(int num_threads);
  ExperimentSpecBuilder& DataScale(double scale);
  ExperimentSpecBuilder& Sampler(SamplerType sampler);
  ExperimentSpecBuilder& LabelModel(LabelModelType label_model);
  /// ADP trade-off factor α (Eq. 2); < 0 keeps the per-task default.
  ExperimentSpecBuilder& AdpAlpha(double alpha);
  /// The Table-3 ablation switches (LabelPick / ConFusion).
  ExperimentSpecBuilder& Ablation(bool use_label_pick, bool use_confusion);
  /// Simulated-user labelling noise (Table 5).
  ExperimentSpecBuilder& UserNoise(double lf_noise);
  ExperimentSpecBuilder& CheckpointDir(std::string dir);
  ExperimentSpecBuilder& TraceDir(std::string dir);
  /// Replaces the whole robustness/observability policy at once.
  ExperimentSpecBuilder& Policy(const RunPolicy& policy);
  /// Paper-scale settings: 300 iterations, 5 seeds, full dataset sizes.
  ExperimentSpecBuilder& PaperScale();

  ExperimentSpec Build() const { return spec_; }
  /// Mutable access for fields without a dedicated setter.
  ExperimentSpec& spec() { return spec_; }

  /// Registers the protocol flags shared by every bench binary:
  /// --iterations, --eval-every, --seeds, --threads, --scale and --full.
  /// Call before FlagParser::Parse.
  static void RegisterCommonFlags(FlagParser& flags,
                                  const std::string& default_scale = "0.25");
  /// A builder preloaded from those flags (--full applies PaperScale()).
  static ExperimentSpecBuilder FromFlags(const FlagParser& flags);

 private:
  ExperimentSpec spec_;
};

}  // namespace activedp

#endif  // ACTIVEDP_CORE_SPEC_BUILDER_H_
