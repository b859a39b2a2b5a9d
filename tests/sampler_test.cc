#include "active/sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "active/adp.h"
#include "active/lal.h"
#include "active/passive.h"
#include "active/seu.h"
#include "active/uncertainty.h"
#include "data/synthetic_text.h"
#include "lf/lf_candidates.h"
#include "math/vector_ops.h"

namespace activedp {
namespace {

/// Harness state for sampler tests over a small text dataset.
class SamplerFixture : public testing::Test {
 protected:
  void SetUp() override {
    SyntheticTextConfig config;
    config.num_examples = 120;
    Rng data_rng(3);
    train_ = GenerateSyntheticText(config, data_rng);
    lf_space_ = BuildLfSpace(train_);
    queried_.assign(train_.size(), false);
    const int n = train_.size();
    al_proba_.Resize(n, 2);
    lm_proba_.Resize(n, 2);
    lm_active_.assign(n, true);
    Rng rng(5);
    for (int i = 0; i < n; ++i) {
      const double p = rng.Uniform(0.01, 0.99);
      al_proba_.SetRow(i, {p, 1.0 - p});
      const double q = rng.Uniform(0.01, 0.99);
      lm_proba_.SetRow(i, {q, 1.0 - q});
    }
  }

  /// Sets every row of `table` to `p` (a hand-built table: generation 0).
  static void SetAll(ProbaTable& table, const std::vector<double>& p) {
    for (int i = 0; i < table.rows(); ++i) table.SetRow(i, p);
  }

  SamplerContext Context() {
    SamplerContext ctx;
    ctx.train = &train_;
    ctx.al_proba = &al_proba_;
    ctx.lm_proba = &lm_proba_;
    ctx.lm_active = &lm_active_;
    ctx.queried = &queried_;
    ctx.lf_space = lf_space_.get();
    ctx.adp_alpha = 0.5;
    return ctx;
  }

  Dataset train_;
  std::unique_ptr<LfSpace> lf_space_;
  ProbaTable al_proba_;
  ProbaTable lm_proba_;
  std::vector<bool> lm_active_;
  std::vector<bool> queried_;
};

class AllSamplersTest : public SamplerFixture,
                        public testing::WithParamInterface<SamplerType> {};

TEST_P(AllSamplersTest, NeverRequeriesAndStaysInRange) {
  auto sampler = MakeSampler(GetParam(), 7);
  Rng rng(9);
  std::set<int> seen;
  for (int t = 0; t < 40; ++t) {
    const int q = sampler->SelectQuery(Context(), rng);
    ASSERT_GE(q, 0);
    ASSERT_LT(q, train_.size());
    EXPECT_TRUE(seen.insert(q).second) << "requeried " << q;
    queried_[q] = true;
  }
}

TEST_P(AllSamplersTest, ReturnsMinusOneWhenExhausted) {
  auto sampler = MakeSampler(GetParam(), 7);
  Rng rng(9);
  queried_.assign(train_.size(), true);
  EXPECT_EQ(sampler->SelectQuery(Context(), rng), -1);
}

TEST_P(AllSamplersTest, HandlesMissingModelsGracefully) {
  auto sampler = MakeSampler(GetParam(), 7);
  Rng rng(11);
  SamplerContext ctx = Context();
  ctx.al_proba = nullptr;
  ctx.lm_proba = nullptr;
  ctx.lm_active = nullptr;
  const int q = sampler->SelectQuery(ctx, rng);
  EXPECT_GE(q, 0);
  EXPECT_LT(q, train_.size());
}

INSTANTIATE_TEST_SUITE_P(Samplers, AllSamplersTest,
                         testing::Values(SamplerType::kPassive,
                                         SamplerType::kUncertainty,
                                         SamplerType::kLal, SamplerType::kSeu,
                                         SamplerType::kAdp));

TEST_F(SamplerFixture, UncertaintyPicksMaxEntropy) {
  // Plant a uniquely most-uncertain row.
  SetAll(al_proba_, {0.9, 0.1});
  al_proba_.SetRow(42, {0.5, 0.5});
  UncertaintySampler sampler;
  Rng rng(13);
  EXPECT_EQ(sampler.SelectQuery(Context(), rng), 42);
}

TEST_F(SamplerFixture, AdpImplementsEquationTwo) {
  // With alpha = 0.5, the score is sqrt(Ent_a * Ent_l); craft rows where the
  // joint winner differs from each individual winner.
  SetAll(al_proba_, {0.95, 0.05});
  SetAll(lm_proba_, {0.95, 0.05});
  al_proba_.SetRow(3, {0.5, 0.5});  // max AL entropy, low LM entropy
  lm_proba_.SetRow(3, {0.99, 0.01});
  lm_proba_.SetRow(7, {0.5, 0.5});  // max LM entropy, low AL entropy
  al_proba_.SetRow(7, {0.99, 0.01});
  al_proba_.SetRow(11, {0.7, 0.3});  // balanced uncertainty on both
  lm_proba_.SetRow(11, {0.7, 0.3});
  AdpSampler sampler;
  Rng rng(15);
  SamplerContext ctx = Context();
  ctx.adp_alpha = 0.5;
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 11);
}

TEST_F(SamplerFixture, AdpAlphaOneIgnoresLabelModel) {
  SetAll(al_proba_, {0.9, 0.1});
  SetAll(lm_proba_, {0.9, 0.1});
  al_proba_.SetRow(5, {0.55, 0.45});
  lm_proba_.SetRow(8, {0.5, 0.5});
  AdpSampler sampler;
  Rng rng(17);
  SamplerContext ctx = Context();
  ctx.adp_alpha = 1.0;
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 5);
}

TEST_F(SamplerFixture, AdpFallsBackToSingleModel) {
  AdpSampler sampler;
  Rng rng(19);
  SamplerContext ctx = Context();
  ctx.al_proba = nullptr;  // only the label model exists
  SetAll(lm_proba_, {0.9, 0.1});
  lm_proba_.SetRow(23, {0.5, 0.5});
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 23);
}

TEST_F(SamplerFixture, ProbaTableEntropiesEqualEntropy) {
  lm_proba_.Seal();
  EXPECT_NE(lm_proba_.generation(), 0u);
  for (int i = 0; i < lm_proba_.rows(); ++i) {
    const double expected = Entropy(lm_proba_.RowVector(i));
    const double cached = lm_proba_.entropy(i);
    EXPECT_EQ(std::memcmp(&expected, &cached, sizeof(double)), 0)
        << "row " << i;
  }
  const uint64_t first = lm_proba_.generation();
  lm_proba_.Seal();
  EXPECT_GT(lm_proba_.generation(), first);
  lm_proba_.SetRow(0, {0.5, 0.5});
  EXPECT_EQ(lm_proba_.generation(), 0u);
}

TEST_F(SamplerFixture, AdpScoreCacheFollowsGenerations) {
  SetAll(al_proba_, {0.9, 0.1});
  SetAll(lm_proba_, {0.9, 0.1});
  al_proba_.SetRow(5, {0.6, 0.4});  // best joint score
  lm_proba_.SetRow(5, {0.6, 0.4});
  al_proba_.SetRow(12, {0.5, 0.5});  // best AL entropy alone
  lm_proba_.SetRow(12, {0.99, 0.01});
  al_proba_.Seal();
  lm_proba_.Seal();
  AdpSampler sampler;
  Rng rng(23);
  SamplerContext ctx = Context();
  sampler.Refresh(ctx);
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 5);

  // Same generations, but the label model is gone (and back).
  ctx.lm_proba = nullptr;
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 12);
  ctx.lm_proba = &lm_proba_;
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 5);

  // A refill under a new generation changes the pick.
  lm_proba_.SetRow(12, {0.5, 0.5});
  lm_proba_.Seal();
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 12);

  // Hand-built (generation 0) tables are rescored on every call.
  al_proba_.SetRow(3, {0.5, 0.5});
  lm_proba_.SetRow(3, {0.5, 0.5});
  ASSERT_EQ(al_proba_.generation(), 0u);
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 3);  // ties row 12, lower index
  al_proba_.SetRow(3, {0.9, 0.1});
  EXPECT_EQ(sampler.SelectQuery(ctx, rng), 12);
}

TEST_F(SamplerFixture, PassiveIsUniformIsh) {
  PassiveSampler sampler;
  Rng rng(21);
  std::set<int> picks;
  for (int t = 0; t < 30; ++t) {
    const int q = sampler.SelectQuery(Context(), rng);
    picks.insert(q);
    queried_[q] = true;
  }
  EXPECT_GT(picks.size(), 25u);  // all distinct by construction
}

TEST(LalSamplerTest, MetaTrainingSucceeds) {
  LalOptions options;
  options.episodes = 6;
  options.steps_per_episode = 8;
  options.task_size = 60;
  options.seed = 3;
  LalSampler sampler(options);
  EXPECT_TRUE(sampler.trained());
}

TEST(LalSamplerTest, StateFeaturesShape) {
  const std::vector<double> phi =
      LalSampler::StateFeatures({0.7, 0.3}, 0.1, 0.5, 0.8, 0.01);
  ASSERT_EQ(phi.size(), 7u);
  EXPECT_DOUBLE_EQ(phi[0], 0.7);                    // p_max
  EXPECT_NEAR(phi[1], Entropy({0.7, 0.3}), 1e-12);  // entropy
  EXPECT_NEAR(phi[2], 0.4, 1e-12);                  // margin
  EXPECT_DOUBLE_EQ(phi[3], 0.1);
  EXPECT_DOUBLE_EQ(phi[4], 0.5);
}

TEST(SamplerFactoryTest, ParseNames) {
  EXPECT_EQ(ParseSamplerType("passive"), SamplerType::kPassive);
  EXPECT_EQ(ParseSamplerType("US"), SamplerType::kUncertainty);
  EXPECT_EQ(ParseSamplerType("lal"), SamplerType::kLal);
  EXPECT_EQ(ParseSamplerType("seu"), SamplerType::kSeu);
  EXPECT_EQ(ParseSamplerType("adp"), SamplerType::kAdp);
  // Retired sampler names fall back to the documented default.
  EXPECT_EQ(ParseSamplerType("qbc"), SamplerType::kAdp);
  EXPECT_EQ(ParseSamplerType("coreset"), SamplerType::kAdp);
  EXPECT_EQ(ParseSamplerType("bogus"), SamplerType::kAdp);
}

TEST(SamplerFactoryTest, NamesRoundTrip) {
  EXPECT_EQ(MakeSampler(SamplerType::kPassive)->name(), "passive");
  EXPECT_EQ(MakeSampler(SamplerType::kUncertainty)->name(), "us");
  EXPECT_EQ(MakeSampler(SamplerType::kSeu)->name(), "seu");
  EXPECT_EQ(MakeSampler(SamplerType::kAdp)->name(), "adp");
}

}  // namespace
}  // namespace activedp
