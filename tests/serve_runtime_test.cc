// Serving runtime (serve/serving.h): ServingSession batch prediction must
// match MvgClassifier::Predict exactly (pooled workspaces, threading and
// concurrent per-thread sessions over one mapped file may not change
// results), and StreamingClassifier must classify sliding windows
// identically to offline prediction of the same window — including
// degenerate windows, which reuse the extractor's sanitization path.

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "obs/obs.h"
#include "serve/model_io.h"
#include "serve/serving.h"
#include "tests/test_util.h"

namespace mvg {
namespace {

using testutil::MakeFamilySeries;
using testutil::MakeNoiseDataset;

class ServingTest : public ::testing::Test {
 protected:
  static const MvgClassifier& Model() {
    static const MvgClassifier* model = [] {
      MvgClassifier::Config config;
      config.model = MvgModel::kXgboost;
      config.grid = GridPreset::kNone;
      auto* clf = new MvgClassifier(config);
      clf->Fit(MakeNoiseDataset("serving_train", {0, 1, 2}, 8, 64, 17));
      return clf;
    }();
    return *model;
  }

  static MvgClassifier LoadedCopy() {
    std::ostringstream os(std::ios::binary);
    SaveModel(Model(), os);
    std::istringstream is(os.str(), std::ios::binary);
    return LoadModel(is);
  }

  static std::vector<Series> ProbeBatch(size_t count, size_t length) {
    std::vector<Series> batch;
    const auto& families = testutil::AllSeriesFamilies();
    for (size_t i = 0; i < count; ++i) {
      batch.push_back(
          MakeFamilySeries(families[i % families.size()], length, 500 + i));
    }
    return batch;
  }
};

TEST_F(ServingTest, PredictBatchMatchesPerSeriesPredict) {
  ServingSession session(LoadedCopy());
  const std::vector<Series> batch = ProbeBatch(32, 64);
  const std::vector<int> served = session.PredictBatch(batch, 1);
  ASSERT_EQ(served.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(served[i], Model().Predict(batch[i])) << "series " << i;
  }
}

TEST_F(ServingTest, PredictBatchIsThreadCountInvariant) {
  ServingSession session(LoadedCopy());
  const std::vector<Series> batch = ProbeBatch(40, 64);
  const std::vector<int> one = session.PredictBatch(batch, 1);
  const std::vector<int> four = session.PredictBatch(batch, 4);
  EXPECT_EQ(one, four);
}

TEST_F(ServingTest, SessionSurvivesManyBatches) {
  // Workspace pooling across calls: repeated batches of varying size and
  // length must keep producing identical answers.
  ServingSession session(LoadedCopy());
  for (size_t round = 0; round < 3; ++round) {
    const size_t length = 48 + 16 * round;
    const std::vector<Series> batch = ProbeBatch(8 + 4 * round, length);
    const std::vector<int> served = session.PredictBatch(batch, 2);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(served[i], Model().Predict(batch[i]))
          << "round " << round << " series " << i;
    }
  }
}

TEST_F(ServingTest, SinglePredictMatches) {
  ServingSession session(LoadedCopy());
  const Series s = MakeFamilySeries(testutil::SeriesFamily::kGaussian, 64, 1);
  EXPECT_EQ(session.Predict(s), Model().Predict(s));
}

TEST_F(ServingTest, RejectsUnfittedModel) {
  EXPECT_THROW(ServingSession session{MvgClassifier()}, std::invalid_argument);
}

/// The concurrent-client pattern: each client thread opens its own mapped
/// session over one model file, so no session is ever shared.
TEST_F(ServingTest, ConcurrentMappedSessionsMatchPredictBatch) {
  const std::string path =
      ::testing::TempDir() + "serve_runtime_test_concurrent.mvg";
  SaveModel(Model(), path);
  const std::vector<Series> batch = ProbeBatch(24, 64);
  const std::vector<int> expected =
      ServingSession(LoadedCopy()).PredictBatch(batch, 1);

  const size_t clients = 4;
  std::vector<std::vector<int>> labels(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ServingSession session = ServingSession::FromFileMapped(path);
      for (const Series& s : batch) labels[c].push_back(session.Predict(s));
    });
  }
  for (std::thread& t : threads) t.join();
  std::remove(path.c_str());
  for (size_t c = 0; c < clients; ++c) {
    EXPECT_EQ(labels[c], expected) << "client " << c;
  }
}

/// mvg_serve_predictions_total counts every classified series, whichever
/// serving path classified it.
TEST_F(ServingTest, PredictionsCounterCoversEveryServingPath) {
  if (!obs::Enabled()) GTEST_SKIP() << "observability compiled out";
  const obs::Counter* counter = obs::PipelineMetrics::Get().serve_predictions;
  const uint64_t before = counter->Value();

  ServingSession session(LoadedCopy());
  const std::vector<Series> batch = ProbeBatch(5, 64);
  session.Predict(batch[0]);
  session.PredictBatch(batch, 2);

  StreamingClassifier::Options opt;
  opt.window = 32;
  opt.hop = 8;
  StreamingClassifier stream(&Model(), opt);
  const Series s = MakeFamilySeries(testutil::SeriesFamily::kRandomWalk,
                                    64, 3);
  size_t streamed = 0;
  for (double v : s) streamed += stream.Push(v).has_value() ? 1 : 0;
  stream.Classify(0);
  ++streamed;

  EXPECT_EQ(counter->Value() - before, 1 + batch.size() + streamed);
}

// ---------------------------------------------------------------------------
// StreamingClassifier
// ---------------------------------------------------------------------------

TEST_F(ServingTest, StreamingFiresOncePerWindowThenEveryHop) {
  StreamingClassifier::Options opt;
  opt.window = 32;
  opt.hop = 8;
  StreamingClassifier stream(&Model(), opt);
  const Series s = MakeFamilySeries(testutil::SeriesFamily::kRandomWalk,
                                    96, 9);
  size_t fired = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const std::optional<int> label = stream.Push(s[i]);
    if (i + 1 < opt.window) {
      EXPECT_FALSE(label.has_value()) << "fired before window full, i=" << i;
      continue;
    }
    // Full since i == 31; hop=8 fires at i = 31, 39, 47, ...
    const bool should_fire = (i + 1 - opt.window) % opt.hop == 0;
    EXPECT_EQ(label.has_value(), should_fire) << "i=" << i;
    if (!label.has_value()) continue;
    ++fired;
    // The streamed prediction must equal offline prediction of exactly
    // the last `window` samples.
    const Series window(s.begin() + (i + 1 - opt.window),
                        s.begin() + (i + 1));
    EXPECT_EQ(*label, Model().Predict(window)) << "i=" << i;
  }
  EXPECT_EQ(fired, 1 + (s.size() - opt.window) / opt.hop);
}

TEST_F(ServingTest, StreamingWindowDefaultsToTrainLength) {
  StreamingClassifier stream(&Model(), {});
  EXPECT_EQ(stream.window(), Model().train_length());
}

TEST_F(ServingTest, StreamingChannelsAreIndependent) {
  StreamingClassifier::Options opt;
  opt.window = 24;
  opt.num_channels = 3;
  StreamingClassifier stream(&Model(), opt);
  const Series a = MakeFamilySeries(testutil::SeriesFamily::kGaussian, 24, 2);
  const Series b = MakeFamilySeries(testutil::SeriesFamily::kRandomWalk, 24, 3);
  // Interleave pushes; channel 2 stays empty.
  std::optional<int> last_a, last_b;
  for (size_t i = 0; i < 24; ++i) {
    last_a = stream.Push(0, a[i]);
    last_b = stream.Push(1, b[i]);
  }
  ASSERT_TRUE(last_a.has_value());
  ASSERT_TRUE(last_b.has_value());
  EXPECT_EQ(*last_a, Model().Predict(a));
  EXPECT_EQ(*last_b, Model().Predict(b));
  EXPECT_FALSE(stream.Ready(2));
  EXPECT_THROW(stream.Push(3, 0.0), std::out_of_range);
  EXPECT_THROW(stream.Classify(2), std::runtime_error);
}

TEST_F(ServingTest, StreamingResetClearsWindow) {
  StreamingClassifier::Options opt;
  opt.window = 16;
  StreamingClassifier stream(&Model(), opt);
  for (size_t i = 0; i < 16; ++i) stream.Push(static_cast<double>(i));
  EXPECT_TRUE(stream.Ready(0));
  stream.Reset(0);
  EXPECT_FALSE(stream.Ready(0));
  EXPECT_FALSE(stream.Push(1.0).has_value());
}

TEST_F(ServingTest, StreamingValidatesOptions) {
  StreamingClassifier::Options zero_hop;
  zero_hop.window = 16;
  zero_hop.hop = 0;
  EXPECT_THROW(StreamingClassifier(&Model(), zero_hop),
               std::invalid_argument);
  StreamingClassifier::Options no_channels;
  no_channels.window = 16;
  no_channels.num_channels = 0;
  EXPECT_THROW(StreamingClassifier(&Model(), no_channels),
               std::invalid_argument);
  EXPECT_THROW(StreamingClassifier(nullptr, {}), std::invalid_argument);
}

/// The degenerate-window satellite: all-equal and non-finite windows go
/// through the extractor's PR-1 sanitization (no duplicate handling in the
/// stream), so streamed and offline predictions agree and never throw.
TEST_F(ServingTest, StreamingDegenerateWindowsMatchOfflinePredict) {
  StreamingClassifier::Options opt;
  opt.window = 24;
  StreamingClassifier stream(&Model(), opt);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, Series>> windows = {
      {"all_equal", Series(24, 3.5)},
      {"all_nan", Series(24, nan)},
      {"mixed_nonfinite",
       [&] {
         Series s = MakeFamilySeries(testutil::SeriesFamily::kGaussian, 24, 4);
         s[0] = nan;
         s[7] = inf;
         s[13] = -inf;
         return s;
       }()},
      {"inf_spikes",
       [&] {
         Series s(24, 1.0);
         s[5] = inf;
         s[18] = -inf;
         return s;
       }()},
  };
  for (const auto& [name, window] : windows) {
    stream.Reset(0);
    std::optional<int> label;
    for (double v : window) label = stream.Push(v);
    ASSERT_TRUE(label.has_value()) << name;
    EXPECT_EQ(*label, Model().Predict(window)) << name;
  }
}

}  // namespace
}  // namespace mvg
