#include "core/spec_builder.h"

#include <utility>

namespace activedp {

ExperimentSpecBuilder::ExperimentSpecBuilder(ExperimentSpec spec)
    : spec_(std::move(spec)) {}

ExperimentSpecBuilder& ExperimentSpecBuilder::Dataset(std::string name) {
  spec_.dataset = std::move(name);
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::Framework(
    FrameworkType framework) {
  spec_.framework = framework;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::Iterations(int iterations) {
  spec_.protocol.iterations = iterations;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::EvalEvery(int eval_every) {
  spec_.protocol.eval_every = eval_every;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::Seeds(int num_seeds) {
  spec_.num_seeds = num_seeds;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::BaseSeed(uint64_t base_seed) {
  spec_.base_seed = base_seed;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::SeedThreads(int num_threads) {
  spec_.num_threads = num_threads;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::DataScale(double scale) {
  spec_.data_scale = scale;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::Sampler(SamplerType sampler) {
  spec_.adp.sampler_type = sampler;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::LabelModel(
    LabelModelType label_model) {
  spec_.adp.label_model_type = label_model;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::AdpAlpha(double alpha) {
  spec_.adp.adp_alpha = alpha;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::Ablation(bool use_label_pick,
                                                       bool use_confusion) {
  spec_.adp.use_label_pick = use_label_pick;
  spec_.adp.use_confusion = use_confusion;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::UserNoise(double lf_noise) {
  spec_.adp.user.label_noise = lf_noise;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::CheckpointDir(std::string dir) {
  spec_.policy.checkpoint_path = std::move(dir);
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::TraceDir(std::string dir) {
  spec_.policy.trace_dir = std::move(dir);
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::Policy(const RunPolicy& policy) {
  spec_.policy = policy;
  return *this;
}

ExperimentSpecBuilder& ExperimentSpecBuilder::PaperScale() {
  spec_.protocol.iterations = 300;
  spec_.num_seeds = 5;
  spec_.data_scale = 1.0;
  return *this;
}

void ExperimentSpecBuilder::RegisterCommonFlags(
    FlagParser& flags, const std::string& default_scale) {
  flags.AddFlag("iterations", "100", "interaction budget per run");
  flags.AddFlag("eval-every", "10", "checkpoint spacing");
  flags.AddFlag("seeds", "2", "number of random seeds");
  flags.AddFlag("threads", "1", "worker threads for parallel seeds");
  flags.AddFlag("scale", default_scale, "fraction of paper dataset sizes");
  flags.AddFlag("full", "false", "paper scale: 300 iters, 5 seeds, scale 1.0");
}

ExperimentSpecBuilder ExperimentSpecBuilder::FromFlags(
    const FlagParser& flags) {
  ExperimentSpecBuilder builder;
  builder.Iterations(flags.GetInt("iterations"))
      .EvalEvery(flags.GetInt("eval-every"))
      .Seeds(flags.GetInt("seeds"))
      .SeedThreads(flags.GetInt("threads"))
      .DataScale(flags.GetDouble("scale"));
  if (flags.GetBool("full")) builder.PaperScale();
  return builder;
}

}  // namespace activedp
