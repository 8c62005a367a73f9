// End-to-end contracts of the streaming sketch-binned training path:
// FitPaged models are bit-identical to the in-RAM Fit for every page
// size, thread budget and (reducer) worker count; the sketch-binned
// default stays within 1% accuracy of exact pre-sorted splits
// (Config::exact_splits, which bins nothing); and a dataset fitting in
// one page never spawns a read-ahead thread.

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "dist/reducer.h"
#include "ml/histogram_reducer.h"
#include "serve/model_io.h"
#include "tests/test_util.h"
#include "ts/paged_ucr_reader.h"
#include "ts/ucr_io.h"

namespace mvg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes `rows` deterministic ragged series (3 classes) and returns the
/// path — large enough that the {64, 128} page sizes actually split it.
std::string WriteStreamCorpus(const std::string& name, size_t rows) {
  Dataset ds(name);
  for (size_t i = 0; i < rows; ++i) {
    Series s(20 + (i % 7));  // ragged lengths: padding must line up too
    for (size_t j = 0; j < s.size(); ++j) {
      s[j] = std::sin(0.07 * static_cast<double>(i + 1) *
                      static_cast<double>(j + 1)) +
             0.01 * static_cast<double>(i % 13);
    }
    ds.Add(std::move(s), static_cast<int>(i % 3));
  }
  const std::string path = TempPath(name + ".csv");
  WriteUcrFile(ds, path);
  return path;
}

/// Model-section bytes with the two recorded wall times (the trailing 16
/// bytes of the pipeline section) masked out.
struct MaskedSections {
  std::string pipeline;
  std::string scaler;
  std::string model;

  bool operator==(const MaskedSections& o) const {
    return pipeline == o.pipeline && scaler == o.scaler && model == o.model;
  }
};

MaskedSections Sections(const MvgClassifier& clf) {
  MaskedSections ms;
  clf.BuildSections(0, &ms.pipeline, &ms.scaler, &ms.model);
  EXPECT_GE(ms.pipeline.size(), 16u);
  ms.pipeline.resize(ms.pipeline.size() - 16);
  return ms;
}

TEST(StreamingFitTest, PagedBitIdenticalToInRamAcrossPageSizesAndThreads) {
  const std::string path = WriteStreamCorpus("stream_pages", 150);
  const Dataset train = ReadUcrFile(path);

  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.grid = GridPreset::kNone;
  MvgClassifier in_ram(config);
  in_ram.Fit(train);
  const MaskedSections want = Sections(in_ram);

  // A different thread budget must not move a bit either.
  MvgClassifier::Config threaded = config;
  threaded.num_threads = 3;
  MvgClassifier in_ram_mt(threaded);
  in_ram_mt.Fit(train);
  EXPECT_TRUE(Sections(in_ram_mt) == want) << "num_threads=3";

  for (size_t page_rows : {size_t{64}, size_t{128}, size_t{1024}}) {
    for (size_t threads : {size_t{1}, size_t{3}}) {
      PagedUcrReader::Options opt;
      opt.page_rows = page_rows;
      PagedUcrReader reader(path, opt);
      MvgClassifier::Config pc = config;
      pc.num_threads = threads;
      MvgClassifier paged(pc);
      paged.FitPaged(&reader);
      EXPECT_EQ(paged.feature_width(), in_ram.feature_width());
      EXPECT_EQ(paged.train_length(), in_ram.train_length());
      EXPECT_TRUE(Sections(paged) == want)
          << "page_rows=" << page_rows << " threads=" << threads;
    }
  }
}

TEST(StreamingFitTest, PagedBitIdenticalForRandomForestWithGrid) {
  // The other sketch-binned family, with a real grid search so the
  // binned CV scoring path is exercised end to end.
  const std::string path = WriteStreamCorpus("stream_rf", 90);
  const Dataset train = ReadUcrFile(path);

  MvgClassifier::Config config;
  config.model = MvgModel::kRandomForest;
  config.grid = GridPreset::kSmall;
  MvgClassifier in_ram(config);
  in_ram.Fit(train);
  const MaskedSections want = Sections(in_ram);

  PagedUcrReader::Options opt;
  opt.page_rows = 64;
  PagedUcrReader reader(path, opt);
  MvgClassifier paged(config);
  paged.FitPaged(&reader);
  EXPECT_TRUE(Sections(paged) == want);
}

TEST(StreamingFitTest, PagedBitIdenticalForAnyWorkerCount) {
  // Reducer ranks each stream the same file page by page; every rank of
  // every world size must serialize the exact bytes of the single-worker
  // fit (the reducer zeroes the recorded wall times, so whole-file
  // comparison is byte-exact).
  const std::string path = WriteStreamCorpus("stream_world", 96);

  const auto fit_world = [&path](size_t world) {
    LocalReducerGroup group(world);
    std::vector<std::string> bytes(world);
    std::vector<std::thread> ranks;
    for (size_t r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        MvgClassifier::Config config;
        config.grid = GridPreset::kNone;
        config.reducer = group.reducer(r);
        PagedUcrReader::Options opt;
        opt.page_rows = 64;
        PagedUcrReader reader(path, opt);
        MvgClassifier clf(config);
        clf.FitPaged(&reader);
        std::ostringstream os;
        SaveModel(clf, os);
        bytes[r] = os.str();
      });
    }
    for (std::thread& t : ranks) t.join();
    return bytes;
  };

  const std::vector<std::string> w1 = fit_world(1);
  ASSERT_FALSE(w1[0].empty());
  for (size_t world : {size_t{2}, size_t{3}}) {
    const std::vector<std::string> wn = fit_world(world);
    for (size_t r = 0; r < world; ++r) {
      EXPECT_EQ(wn[r], w1[0]) << "world " << world << " rank " << r;
    }
  }
}

TEST(StreamingFitTest, SketchAccuracyWithinOnePercentOfExactBins) {
  // Imbalanced two-class corpus of 100 separable series. The reference
  // is exact pre-sorted split enumeration (every distinct value is a
  // candidate threshold), so the sketch's binning is the only difference
  // the bound measures. The class signal must survive the extraction
  // front-end's detrend, so it is structural, not a trend:
  // class 0 is a smooth sine with faint noise, class 1 is white noise —
  // their visibility graphs differ sharply in degree structure.
  Dataset train("sketch_acc_train"), test("sketch_acc_test");
  Rng rng(31);
  const auto make = [&rng](int label, size_t n) {
    Series s(n);
    for (size_t j = 0; j < n; ++j) {
      s[j] = label == 0 ? std::sin(2.0 * 3.14159265358979 *
                                   static_cast<double>(j) / 16.0) +
                              rng.Gaussian() * 0.05
                        : rng.Gaussian();
    }
    return s;
  };
  for (size_t i = 0; i < 100; ++i) {
    const int label = i < 60 ? 0 : 1;
    train.Add(make(label, 48), label);
  }
  for (size_t i = 0; i < 100; ++i) {
    const int label = i % 2;
    test.Add(make(label, 48), label);
  }

  const auto accuracy = [&test](const MvgClassifier& clf) {
    size_t hits = 0;
    for (size_t i = 0; i < test.size(); ++i) {
      hits += clf.Predict(test.series(i)) == test.label(i) ? 1 : 0;
    }
    return static_cast<double>(hits) / static_cast<double>(test.size());
  };

  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.grid = GridPreset::kNone;
  MvgClassifier sketch(config);
  sketch.Fit(train);

  MvgClassifier::Config exact_config = config;
  exact_config.exact_splits = true;
  MvgClassifier exact(exact_config);
  exact.Fit(train);

  const double acc_sketch = accuracy(sketch);
  const double acc_exact = accuracy(exact);
  EXPECT_GE(acc_exact, 0.9) << "corpus is not separable enough to compare";
  EXPECT_NEAR(acc_sketch, acc_exact, 0.01 + 1e-12);
}

TEST(StreamingFitTest, OnePageDatasetNeverSpawnsReadAhead) {
  const std::string path = WriteStreamCorpus("stream_one_page", 40);

  // Page larger than the file, and page exactly the file: the full-page
  // EOF peek must keep everything on the calling thread.
  for (size_t page_rows : {size_t{1000}, size_t{40}}) {
    PagedUcrReader::Options opt;
    opt.page_rows = page_rows;
    PagedUcrReader reader(path, opt);
    SeriesPage page;
    size_t rows = 0;
    while (reader.NextPage(&page)) rows += page.size();
    EXPECT_EQ(rows, 40u);
    EXPECT_EQ(reader.read_ahead_spawns(), 0u) << "page_rows=" << page_rows;
  }

  // A genuinely multi-page file still gets read-ahead.
  PagedUcrReader::Options opt;
  opt.page_rows = 16;
  PagedUcrReader reader(path, opt);
  SeriesPage page;
  while (reader.NextPage(&page)) {
  }
  EXPECT_GT(reader.read_ahead_spawns(), 0u);
}

}  // namespace
}  // namespace mvg
