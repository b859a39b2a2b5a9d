#include "core/session_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/activedp.h"
#include "core/framework.h"
#include "data/synthetic_tabular.h"
#include "data/synthetic_text.h"
#include "util/rng.h"

namespace activedp {
namespace {

SessionState MakeState() {
  SessionState state;
  state.lfs.push_back(std::make_shared<KeywordLf>(3, "check", 1));
  state.lfs.push_back(std::make_shared<KeywordLf>(17, "song", 0));
  state.lfs.push_back(std::make_shared<ThresholdLf>(
      2, 0.12345678901234567, StumpOp::kLessEqual, 0));
  state.lfs.push_back(std::make_shared<ThresholdLf>(
      5, -3.5, StumpOp::kGreaterEqual, 1));
  state.query_indices = {10, 20, 30, 40};
  state.pseudo_labels = {1, 0, 0, 1};
  return state;
}

TEST(SessionIoTest, RoundTripsAllLfKinds) {
  const std::string path = testing::TempDir() + "/session.adp";
  const SessionState original = MakeState();
  ASSERT_TRUE(SaveSession(original, path).ok());
  Result<SessionState> loaded = LoadSession(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->lfs.size(), original.lfs.size());
  for (size_t i = 0; i < original.lfs.size(); ++i) {
    EXPECT_EQ(loaded->lfs[i]->Key(), original.lfs[i]->Key()) << i;
    EXPECT_EQ(loaded->lfs[i]->Name(), original.lfs[i]->Name()) << i;
  }
  EXPECT_EQ(loaded->query_indices, original.query_indices);
  EXPECT_EQ(loaded->pseudo_labels, original.pseudo_labels);
  std::remove(path.c_str());
}

TEST(SessionIoTest, ThresholdSurvivesExactly) {
  const std::string path = testing::TempDir() + "/session2.adp";
  ASSERT_TRUE(SaveSession(MakeState(), path).ok());
  Result<SessionState> loaded = LoadSession(path);
  ASSERT_TRUE(loaded.ok());
  const auto* stump =
      dynamic_cast<const ThresholdLf*>(loaded->lfs[2].get());
  ASSERT_NE(stump, nullptr);
  EXPECT_DOUBLE_EQ(stump->threshold(), 0.12345678901234567);
  std::remove(path.c_str());
}

TEST(SessionIoTest, VocabularyRemapsKeywordIds) {
  // Save against one dataset's ids, load against another's vocabulary.
  SyntheticTextConfig config;
  config.num_examples = 200;
  Rng rng(3);
  const Dataset dataset = GenerateSyntheticText(config, rng);
  const int id = dataset.vocabulary().GetId("c0w0");
  ASSERT_NE(id, Vocabulary::kUnknownId);

  SessionState state;
  state.lfs.push_back(
      std::make_shared<KeywordLf>(/*wrong id=*/9999, "c0w0", 0));
  state.query_indices = {-1};
  state.pseudo_labels = {-1};
  const std::string path = testing::TempDir() + "/session3.adp";
  ASSERT_TRUE(SaveSession(state, path).ok());

  Result<SessionState> loaded = LoadSession(path, &dataset.vocabulary());
  ASSERT_TRUE(loaded.ok());
  const auto* keyword =
      dynamic_cast<const KeywordLf*>(loaded->lfs[0].get());
  ASSERT_NE(keyword, nullptr);
  EXPECT_EQ(keyword->token_id(), id);  // re-resolved
  std::remove(path.c_str());
}

TEST(SessionIoTest, MissingKeywordInVocabularyFails) {
  SyntheticTextConfig config;
  config.num_examples = 100;
  Rng rng(5);
  const Dataset dataset = GenerateSyntheticText(config, rng);
  SessionState state;
  state.lfs.push_back(std::make_shared<KeywordLf>(1, "no-such-word", 1));
  const std::string path = testing::TempDir() + "/session4.adp";
  ASSERT_TRUE(SaveSession(state, path).ok());
  EXPECT_EQ(LoadSession(path, &dataset.vocabulary()).status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(SessionIoTest, RejectsCorruptFiles) {
  const std::string path = testing::TempDir() + "/bad.adp";
  {
    std::ofstream out(path);
    out << "something else\nkw 1 x 1 0 0\n";
  }
  EXPECT_FALSE(LoadSession(path).ok());
  {
    std::ofstream out(path);
    out << "activedp-session v1\nkw 1\n";
  }
  EXPECT_FALSE(LoadSession(path).ok());
  {
    std::ofstream out(path);
    out << "activedp-session v1\nst 1 0.5 XX 1 0 0\n";
  }
  EXPECT_FALSE(LoadSession(path).ok());
  {
    std::ofstream out(path);
    out << "activedp-session v1\nzz 1 2 3\n";
  }
  EXPECT_FALSE(LoadSession(path).ok());
  std::remove(path.c_str());
  EXPECT_EQ(LoadSession("/no/such/file").status().code(),
            StatusCode::kNotFound);
}

TEST(SessionIoTest, CorruptFileMatrixNeverAborts) {
  // Every corruption is reported as InvalidArgument with a line number —
  // the loader must never CHECK-abort on untrusted file contents.
  const std::string path = testing::TempDir() + "/matrix.adp";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"empty file", ""},
      {"header only garbage", "activedp-session v9\n"},
      {"negative keyword label", "activedp-session v1\nkw 1 x -2 0 0\n"},
      {"negative token id", "activedp-session v1\nkw -5 x 1 0 0\n"},
      {"negative stump feature", "activedp-session v1\nst -1 0.5 le 1 0 0\n"},
      {"non-finite threshold", "activedp-session v1\nst 1 nan le 1 0 0\n"},
      {"truncated mid-line", "activedp-session v1\nkw 1 x 1 0 0\nst 2 0.\n"},
      {"binary junk", std::string("activedp-session v1\n\x01\x02\xff\n", 24)},
      {"stale checksum footer",
       "activedp-session v1\nkw 1 x 1 0 0\n#crc64 0123456789abcdef\n"}};
  for (const auto& [name, content] : cases) {
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << content;
    }
    Result<SessionState> loaded = LoadSession(path);
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << name << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SessionIoTest, LineNumberAppearsInParseErrors) {
  const std::string path = testing::TempDir() + "/lineno.adp";
  {
    std::ofstream out(path);
    out << "activedp-session v1\nkw 1 x 1 0 0\nkw broken\n";
  }
  Result<SessionState> loaded = LoadSession(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("line 3"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SessionIoTest, FooterlessLegacyFilesStillLoad) {
  // Files written before the checksum footer existed must keep loading.
  const std::string path = testing::TempDir() + "/legacy.adp";
  {
    std::ofstream out(path);
    out << "activedp-session v1\nkw 4 check 1 2 1\n";
  }
  Result<SessionState> loaded = LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lfs.size(), 1u);
  std::remove(path.c_str());
}

TEST(SessionIoTest, SaveLeavesPreviousFileOnFailure) {
  // The atomic protocol must not clobber a good session when a later save
  // errors out before the rename.
  const std::string path = testing::TempDir() + "/atomic.adp";
  ASSERT_TRUE(SaveSession(MakeState(), path).ok());
  SessionState bad = MakeState();
  bad.lfs.push_back(std::make_shared<KeywordLf>(9, "two words", 1));
  bad.query_indices.push_back(1);
  bad.pseudo_labels.push_back(1);
  EXPECT_FALSE(SaveSession(bad, path).ok());  // whitespace keyword rejected
  Result<SessionState> loaded = LoadSession(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lfs.size(), MakeState().lfs.size());
  std::remove(path.c_str());
}

TEST(SessionIoTest, PipelineSnapshotRestoreRoundTrip) {
  // Run a pipeline, snapshot, restore into a fresh pipeline, and check the
  // restored pipeline produces the same labels.
  SyntheticTextConfig config;
  config.num_examples = 500;
  Rng rng(13);
  const Dataset full = GenerateSyntheticText(config, rng);
  Rng split_rng(17);
  const DataSplit split = SplitDataset(full, 0.8, 0.1, split_rng);
  FrameworkContext context = FrameworkContext::Build(split);

  ActiveDpOptions options;
  options.seed = 19;
  ActiveDp original(context, options);
  for (int t = 0; t < 25; ++t) ASSERT_TRUE(original.Step().ok());

  const std::string path = testing::TempDir() + "/pipeline.adp";
  ASSERT_TRUE(SaveSession(original.Snapshot(), path).ok());
  Result<SessionState> loaded =
      LoadSession(path, &split.train.vocabulary());
  ASSERT_TRUE(loaded.ok());

  ActiveDp restored(context, options);
  ASSERT_TRUE(restored.Restore(*loaded).ok());
  EXPECT_EQ(restored.lfs().size(), original.lfs().size());
  EXPECT_EQ(restored.query_indices(), original.query_indices());
  EXPECT_EQ(restored.pseudo_labels(), original.pseudo_labels());
  EXPECT_EQ(restored.has_al_model(), original.has_al_model());

  const auto a = original.CurrentTrainingLabels();
  const auto b = restored.CurrentTrainingLabels();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << i;
    for (size_t c = 0; c < a[i].size(); ++c) {
      EXPECT_NEAR(a[i][c], b[i][c], 1e-9);
    }
  }
  // And the restored pipeline can keep going.
  EXPECT_TRUE(restored.Step().ok());
  std::remove(path.c_str());
}

TEST(SessionIoTest, RestoreRejectsUsedPipeline) {
  SyntheticTextConfig config;
  config.num_examples = 200;
  Rng rng(23);
  const Dataset full = GenerateSyntheticText(config, rng);
  Rng split_rng(29);
  const DataSplit split = SplitDataset(full, 0.8, 0.1, split_rng);
  FrameworkContext context = FrameworkContext::Build(split);
  ActiveDpOptions options;
  options.seed = 31;
  ActiveDp pipeline(context, options);
  ASSERT_TRUE(pipeline.Step().ok());
  EXPECT_EQ(pipeline.Restore(SessionState{}).code(),
            StatusCode::kFailedPrecondition);
}

/// A session whose entry `bad` is replaced by `lf` / `query` / `pseudo`
/// after two valid entries, so a restore that applied entries one by one
/// would have changed the pipeline before reaching it.
SessionState WithBadEntry(const SessionState& valid, LfPtr lf, int query,
                          int pseudo) {
  SessionState state;
  for (size_t i = 0; i < 2; ++i) {
    state.lfs.push_back(valid.lfs[i]);
    state.query_indices.push_back(valid.query_indices[i]);
    state.pseudo_labels.push_back(valid.pseudo_labels[i]);
  }
  state.lfs.push_back(std::move(lf));
  state.query_indices.push_back(query);
  state.pseudo_labels.push_back(pseudo);
  return state;
}

TEST(SessionIoTest, RestoreRefusesInvalidSessionsAndStaysFresh) {
  SyntheticTabularConfig config;
  config.num_examples = 300;
  config.num_features = 6;
  Rng rng(37);
  const Dataset full = GenerateSyntheticTabular(config, rng);
  Rng split_rng(41);
  const DataSplit split = SplitDataset(full, 0.8, 0.1, split_rng);
  FrameworkContext context = FrameworkContext::Build(split);
  const int n = split.train.size();
  ASSERT_EQ(context.feature_dim, 6);
  ActiveDpOptions options;
  options.seed = 43;

  // A valid session to build the bad ones from.
  ActiveDp source(context, options);
  for (int t = 0; t < 4; ++t) ASSERT_TRUE(source.Step().ok());
  const SessionState valid = source.Snapshot();
  ASSERT_GE(valid.lfs.size(), 2u);
  const LfPtr stump = valid.lfs[0];

  struct Case {
    std::string name;
    SessionState state;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {"stump feature at the row width",
       WithBadEntry(valid,
                    std::make_shared<ThresholdLf>(6, 0.0,
                                                  StumpOp::kLessEqual, 0),
                    -1, -1),
       StatusCode::kInvalidArgument},
      {"LF class outside [0, k)",
       WithBadEntry(valid,
                    std::make_shared<ThresholdLf>(1, 0.0,
                                                  StumpOp::kGreaterEqual, 2),
                    -1, -1),
       StatusCode::kInvalidArgument},
      {"LF class that wraps in int8",
       WithBadEntry(valid,
                    std::make_shared<ThresholdLf>(1, 0.0,
                                                  StumpOp::kGreaterEqual,
                                                  255),
                    -1, -1),
       StatusCode::kInvalidArgument},
      {"keyword LF on a tabular row",
       WithBadEntry(valid, std::make_shared<KeywordLf>(40, "w", 1), -1, -1),
       StatusCode::kInvalidArgument},
      {"query index past the training set",
       WithBadEntry(valid, stump, n, -1), StatusCode::kOutOfRange},
      {"negative query index other than -1",
       WithBadEntry(valid, stump, -2, -1), StatusCode::kOutOfRange},
      {"pseudo-label outside [0, k)",
       WithBadEntry(valid, stump, 0, 2), StatusCode::kInvalidArgument},
      {"negative pseudo-label other than -1",
       WithBadEntry(valid, stump, 0, -3), StatusCode::kInvalidArgument},
  };
  ActiveDp pipeline(context, options);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(pipeline.Restore(c.state).code(), c.code);
    EXPECT_TRUE(pipeline.lfs().empty());
    EXPECT_TRUE(pipeline.query_indices().empty());
    EXPECT_FALSE(pipeline.has_label_model());
  }
  // Still fresh: the valid session restores into the same pipeline.
  ASSERT_TRUE(pipeline.Restore(valid).ok());
  EXPECT_EQ(pipeline.lfs().size(), valid.lfs.size());
  EXPECT_EQ(pipeline.query_indices(), source.query_indices());
}

TEST(SessionIoTest, EmptySessionRoundTrips) {
  const std::string path = testing::TempDir() + "/empty.adp";
  ASSERT_TRUE(SaveSession(SessionState{}, path).ok());
  Result<SessionState> loaded = LoadSession(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->lfs.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace activedp
