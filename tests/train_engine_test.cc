// Tests for the histogram training engine: FeatureTable binning contract,
// histogram-vs-exact split parity (including the 100-series x 4-family
// sweep the acceptance bar pins), byte identity of matrix fits and binned
// fits on the same rows, thread-count invariance of RF/GBT/
// GridSearch/stacking and of the end-to-end MvgClassifier::Fit, fold
// sharing in GridSearch, FitOnRows-vs-gathered-Fit equivalence, and the
// .mvg round trip of a histogram-trained model.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "ml/decision_tree.h"
#include "ml/feature_table.h"
#include "ml/gradient_boosting.h"
#include "ml/metrics.h"
#include "ml/model_selection.h"
#include "ml/random_forest.h"
#include "ml/stacking.h"
#include "serve/model_io.h"
#include "tests/test_util.h"
#include "ts/generators.h"
#include "util/binary_io.h"
#include "util/random.h"

namespace mvg {
namespace {

using testutil::AllSeriesFamilies;
using testutil::MakeFamilySeries;
using testutil::SeriesFamily;

void MakeBlobs(size_t per_class, size_t num_classes, double gap, uint64_t seed,
               Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  x->clear();
  y->clear();
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      x->push_back({gap * static_cast<double>(c) + rng.Gaussian(0, 0.5),
                    rng.Gaussian(0, 0.5),
                    rng.Gaussian(0, 1.0)});
      y->push_back(static_cast<int>(c));
    }
  }
}

// ---------------------------------------------------------------------------
// FeatureTable
// ---------------------------------------------------------------------------

TEST(FeatureTableTest, ExactBinsWhenFewDistinctValues) {
  const Matrix x = {{0.0}, {1.0}, {1.0}, {2.0}, {3.0}};
  FeatureTable ft;
  ft.Build(x);
  EXPECT_EQ(ft.num_rows(), 5u);
  EXPECT_EQ(ft.num_features(), 1u);
  EXPECT_EQ(ft.num_bins(0), 4u);  // one bin per distinct value.
  // Bin ids follow value order; equal values share a bin.
  EXPECT_EQ(ft.bin(0, 0), 0);
  EXPECT_EQ(ft.bin(0, 1), ft.bin(0, 2));
  EXPECT_LT(ft.bin(0, 2), ft.bin(0, 3));
  // Thresholds are the midpoints between consecutive distinct values.
  EXPECT_DOUBLE_EQ(ft.threshold(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ft.threshold(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(ft.threshold(0, 2), 2.5);
}

TEST(FeatureTableTest, BinRoutingMatchesThresholdRouting) {
  // The contract Predict relies on: bin(f, i) <= b iff value <= threshold.
  // Checked on the quantile path (more rows than bins).
  Rng rng(7);
  Matrix x;
  for (size_t i = 0; i < 1200; ++i) {
    x.push_back({rng.Gaussian(), rng.Uniform(-3, 3)});
  }
  FeatureTable ft;
  ft.Build(x, 64);
  for (size_t f = 0; f < ft.num_features(); ++f) {
    const size_t nb = ft.num_bins(f);
    ASSERT_LE(nb, 64u);
    ASSERT_GE(nb, 2u);
    for (size_t b = 0; b + 1 < nb; ++b) {
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(ft.bin(f, i) <= b, x[i][f] <= ft.threshold(f, b))
            << "f=" << f << " b=" << b << " i=" << i;
      }
    }
  }
}

TEST(FeatureTableTest, RowSubsetUsesCompactIndexing) {
  const Matrix x = {{10.0}, {20.0}, {30.0}, {40.0}};
  FeatureTable ft;
  ft.Build(x, {3, 1}, 256);
  EXPECT_EQ(ft.num_rows(), 2u);
  EXPECT_EQ(ft.source_row(0), 3u);
  EXPECT_EQ(ft.source_row(1), 1u);
  EXPECT_GT(ft.bin(0, 0), ft.bin(0, 1));  // 40 binned above 20.
}

// ---------------------------------------------------------------------------
// Histogram-vs-exact parity
// ---------------------------------------------------------------------------

TEST(TrainParity, TreeTrainingPredictionsIdenticalToExact) {
  // With <= 256 distinct values per feature the binning is exact and the
  // class-count histograms are integer, so the histogram tree picks the
  // same splits as the pre-sorted sweep and training predictions match
  // exactly.
  Matrix x;
  std::vector<int> y;
  MakeBlobs(40, 3, 1.5, 11, &x, &y);  // overlapping: deep, non-trivial tree
  DecisionTreeClassifier::Params hp, ep;
  hp.split = SplitMode::kHistogram;
  ep.split = SplitMode::kExact;
  DecisionTreeClassifier hist(hp), exact(ep);
  hist.Fit(x, y);
  exact.Fit(x, y);
  EXPECT_EQ(hist.PredictAll(x), exact.PredictAll(x));
  EXPECT_EQ(hist.NumNodes(), exact.NumNodes());
}

TEST(TrainParity, ForestAccuracyMatchesExact) {
  Matrix x, xte;
  std::vector<int> y, yte;
  MakeBlobs(40, 2, 2.0, 12, &x, &y);
  MakeBlobs(40, 2, 2.0, 99, &xte, &yte);
  RandomForestClassifier::Params hp, ep;
  hp.num_trees = ep.num_trees = 40;
  hp.split = SplitMode::kHistogram;
  ep.split = SplitMode::kExact;
  RandomForestClassifier hist(hp), exact(ep);
  hist.Fit(x, y);
  exact.Fit(x, y);
  EXPECT_NEAR(ErrorRate(yte, hist.PredictAll(xte)),
              ErrorRate(yte, exact.PredictAll(xte)), 0.05);
}

TEST(TrainParity, GbtTrainingErrorMatchesExact) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(50, 2, 1.0, 13, &x, &y);  // overlapping
  GradientBoostingClassifier::Params hp, ep;
  hp.num_rounds = ep.num_rounds = 40;
  hp.split = SplitMode::kHistogram;
  ep.split = SplitMode::kExact;
  GradientBoostingClassifier hist(hp), exact(ep);
  hist.Fit(x, y);
  exact.Fit(x, y);
  EXPECT_NEAR(ErrorRate(y, hist.PredictAll(x)),
              ErrorRate(y, exact.PredictAll(x)), 0.02);
}

// Matrix fits enter the binned engine: FitOnRows on a row subset saves the
// same bytes as FitBinned on FeatureTable::Build of exactly those rows —
// for 2-4 classes, a column with few distinct values, and with row/column
// sampling (GBT) or bootstrap (RF) both on and off.
TEST(TrainParity, MatrixFitSavesSameBytesAsBinnedFitOnBuiltTable) {
  const auto saved = [](const Classifier& clf) {
    BinaryWriter w;
    SaveClassifierBinary(clf, &w);
    return w.data();
  };
  for (size_t num_classes : {size_t{2}, size_t{3}, size_t{4}}) {
    Matrix x;
    std::vector<int> y;
    MakeBlobs(30, num_classes, 1.0, 20 + num_classes, &x, &y);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i].push_back(static_cast<double>(i % 3));  // few distinct values
    }
    std::vector<size_t> rows;
    for (size_t i = 0; i < x.size(); ++i) {
      if (i % 4 != 1) rows.push_back(i);
    }
    FeatureTable ft;
    ft.Build(x, rows, FeatureTable::kMaxBins);
    std::vector<int> y_table;
    for (size_t r : rows) y_table.push_back(y[r]);
    std::vector<size_t> all(rows.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;

    for (bool sampling : {false, true}) {
      SCOPED_TRACE("classes=" + std::to_string(num_classes) +
                   " sampling=" + std::to_string(sampling));
      GradientBoostingClassifier::Params gp;
      gp.num_rounds = 12;
      gp.max_depth = 3;
      gp.min_child_weight = 0.5;
      gp.subsample = gp.colsample = sampling ? 0.5 : 1.0;
      gp.num_threads = 2;
      GradientBoostingClassifier gbt_matrix(gp), gbt_table(gp);
      gbt_matrix.FitOnRows(x, y, rows);
      gbt_table.FitBinned(ft, y_table, all);
      EXPECT_EQ(saved(gbt_matrix), saved(gbt_table));

      RandomForestClassifier::Params rp;
      rp.num_trees = 8;
      rp.max_depth = 6;
      rp.bootstrap = sampling;
      rp.num_threads = 2;
      RandomForestClassifier rf_matrix(rp), rf_table(rp);
      rf_matrix.FitOnRows(x, y, rows);
      rf_table.FitBinned(ft, y_table, all);
      EXPECT_EQ(saved(rf_matrix), saved(rf_table));
    }
  }
}

// The acceptance sweep: 100 series (25 per input family), the family as
// the class label, MVG features, histogram vs exact XGBoost — held-out
// accuracy must agree within 1%.
TEST(TrainParity, SweepHistogramVsExactAcross4Families) {
  const size_t per_family = 25;
  const size_t length = 64;
  Dataset train("parity_train"), test("parity_test");
  int label = 0;
  for (SeriesFamily family : AllSeriesFamilies()) {
    for (size_t i = 0; i < per_family; ++i) {
      train.Add(MakeFamilySeries(family, length, 10 + i), label);
      test.Add(MakeFamilySeries(family, length, 500 + i), label);
    }
    ++label;
  }

  const MvgFeatureExtractor fx;
  const Matrix xtr = fx.ExtractAll(train);
  const Matrix xte = fx.ExtractAll(test);
  const std::vector<int> ytr = train.labels();
  const std::vector<int> yte = test.labels();

  GradientBoostingClassifier::Params hp, ep;
  hp.num_rounds = ep.num_rounds = 60;
  hp.max_depth = ep.max_depth = 4;
  hp.split = SplitMode::kHistogram;
  ep.split = SplitMode::kExact;
  GradientBoostingClassifier hist(hp), exact(ep);
  hist.Fit(xtr, ytr);
  exact.Fit(xtr, ytr);

  const std::vector<int> pred_hist = hist.PredictAll(xte);
  const std::vector<int> pred_exact = exact.PredictAll(xte);
  const double acc_hist = Accuracy(yte, pred_hist);
  const double acc_exact = Accuracy(yte, pred_exact);
  EXPECT_NEAR(acc_hist, acc_exact, 0.01 + 1e-12)
      << "hist=" << acc_hist << " exact=" << acc_exact;
  // Both engines must clearly beat 4-class chance (0.25). The bar is not
  // higher because monotone ramps and constants both detrend to flat
  // series, so those two families are intentionally confusable — the
  // sweep is about engine parity, not pipeline accuracy.
  EXPECT_GE(acc_exact, 0.6);
  EXPECT_GE(acc_hist, 0.6);
}

// ---------------------------------------------------------------------------
// Thread-count invariance
// ---------------------------------------------------------------------------

TEST(ThreadInvariance, RandomForestBitIdentical) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 3, 1.5, 21, &x, &y);
  RandomForestClassifier::Params p1, p4;
  p1.num_trees = p4.num_trees = 50;
  p1.num_threads = 1;
  p4.num_threads = 4;
  RandomForestClassifier a(p1), b(p4);
  a.Fit(x, y);
  b.Fit(x, y);
  for (const auto& row : x) {
    EXPECT_EQ(a.PredictProba(row), b.PredictProba(row));
  }
}

TEST(ThreadInvariance, GradientBoostingBitIdentical) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 3, 1.5, 22, &x, &y);  // multiclass: one tree per class
  GradientBoostingClassifier::Params p1, p4;
  p1.num_rounds = p4.num_rounds = 30;
  p1.subsample = p4.subsample = 0.5;
  p1.colsample = p4.colsample = 0.5;
  p1.num_threads = 1;
  p4.num_threads = 4;
  GradientBoostingClassifier a(p1), b(p4);
  a.Fit(x, y);
  b.Fit(x, y);
  for (const auto& row : x) {
    EXPECT_EQ(a.PredictProba(row), b.PredictProba(row));
  }
  EXPECT_EQ(a.FeatureGains(), b.FeatureGains());
}

TEST(ThreadInvariance, GridSearchBitIdentical) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 2.0, 23, &x, &y);
  std::vector<ClassifierFactory> candidates;
  for (size_t rounds : {size_t{5}, size_t{20}, size_t{40}}) {
    candidates.push_back([rounds]() {
      GradientBoostingClassifier::Params p;
      p.num_rounds = rounds;
      return std::make_unique<GradientBoostingClassifier>(p);
    });
  }
  const GridSearchResult serial = GridSearch(candidates, x, y, 3, 1, 1);
  const GridSearchResult parallel = GridSearch(candidates, x, y, 3, 1, 4);
  EXPECT_EQ(serial.scores, parallel.scores);
  EXPECT_EQ(serial.best_index, parallel.best_index);
}

TEST(ThreadInvariance, StackingBitIdentical) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 1.5, 24, &x, &y);
  auto families = [] {
    std::vector<std::vector<ClassifierFactory>> f;
    f.push_back({[]() {
                   GradientBoostingClassifier::Params p;
                   p.num_rounds = 15;
                   return std::make_unique<GradientBoostingClassifier>(p);
                 },
                 []() {
                   RandomForestClassifier::Params p;
                   p.num_trees = 20;
                   return std::make_unique<RandomForestClassifier>(p);
                 }});
    return f;
  };
  StackingEnsemble::Params p1, p4;
  p1.top_k_per_family = p4.top_k_per_family = 2;
  p1.num_threads = 1;
  p4.num_threads = 4;
  StackingEnsemble a(families(), p1), b(families(), p4);
  a.Fit(x, y);
  b.Fit(x, y);
  for (const auto& row : x) {
    EXPECT_EQ(a.PredictProba(row), b.PredictProba(row));
  }
}

TEST(ThreadInvariance, MvgClassifierEndToEnd) {
  SyntheticInfo info;
  info.name = "ti";
  info.family = "chaos";
  info.num_classes = 2;
  info.train_size = 16;
  info.test_size = 12;
  info.length = 64;
  const DatasetSplit split = MakeSynthetic(info, 31);

  MvgClassifier::Config c1, c4;
  c1.grid = c4.grid = GridPreset::kSmall;
  c1.num_threads = 1;
  c4.num_threads = 4;
  MvgClassifier a(c1), b(c4);
  a.Fit(split.train);
  b.Fit(split.train);
  EXPECT_EQ(a.PredictAll(split.test), b.PredictAll(split.test));
}

// ---------------------------------------------------------------------------
// Fold sharing and view-based fitting
// ---------------------------------------------------------------------------

TEST(ModelSelection, GridSearchSharesFoldsAcrossCandidates) {
  // The same stratified split must back every candidate: per-candidate
  // CrossValLogLoss over the precomputed folds reproduces GridSearch's
  // scores exactly.
  Matrix x;
  std::vector<int> y;
  MakeBlobs(24, 2, 2.0, 41, &x, &y);
  std::vector<ClassifierFactory> candidates;
  for (size_t rounds : {size_t{5}, size_t{25}}) {
    candidates.push_back([rounds]() {
      GradientBoostingClassifier::Params p;
      p.num_rounds = rounds;
      return std::make_unique<GradientBoostingClassifier>(p);
    });
  }
  const auto folds = StratifiedKFold(y, 3, 7);
  const GridSearchResult result = GridSearch(candidates, x, y, folds);
  ASSERT_EQ(result.scores.size(), candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    EXPECT_DOUBLE_EQ(result.scores[c],
                     CrossValLogLoss(candidates[c], x, y, folds));
  }
  // And the (num_folds, seed) overload is the same split.
  const GridSearchResult seeded = GridSearch(candidates, x, y, 3, 7);
  EXPECT_EQ(seeded.scores, result.scores);
}

TEST(ModelSelection, FitOnRowsMatchesGatheredFit) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 1.5, 42, &x, &y);
  std::vector<size_t> rows;
  for (size_t i = 0; i < x.size(); i += 2) rows.push_back(i);

  Matrix xg;
  std::vector<int> yg;
  for (size_t r : rows) {
    xg.push_back(x[r]);
    yg.push_back(y[r]);
  }

  GradientBoostingClassifier view, gathered;
  view.FitOnRows(x, y, rows);
  gathered.Fit(xg, yg);
  for (const auto& row : x) {
    EXPECT_EQ(view.PredictProba(row), gathered.PredictProba(row));
  }

  RandomForestClassifier rf_view, rf_gathered;
  rf_view.FitOnRows(x, y, rows);
  rf_gathered.Fit(xg, yg);
  for (const auto& row : x) {
    EXPECT_EQ(rf_view.PredictProba(row), rf_gathered.PredictProba(row));
  }
}

// ---------------------------------------------------------------------------
// Persistence of histogram-trained models
// ---------------------------------------------------------------------------

TEST(TrainEngineIo, MvgRoundTripOfHistogramTrainedModel) {
  SyntheticInfo info;
  info.name = "io";
  info.family = "worms";
  info.num_classes = 2;
  info.train_size = 16;
  info.test_size = 16;
  info.length = 64;
  const DatasetSplit split = MakeSynthetic(info, 51);

  MvgClassifier::Config config;
  config.grid = GridPreset::kNone;
  config.num_threads = 2;
  MvgClassifier clf(config);
  clf.Fit(split.train);

  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  clf.SaveBinary(blob);
  MvgClassifier loaded = MvgClassifier::LoadBinary(blob);

  EXPECT_EQ(clf.PredictAll(split.test), loaded.PredictAll(split.test));
  EXPECT_FALSE(loaded.config().exact_splits);

  // Re-saving the loaded model reproduces the bytes exactly.
  std::stringstream again(std::ios::in | std::ios::out | std::ios::binary);
  loaded.SaveBinary(again);
  EXPECT_EQ(blob.str(), again.str());
}

}  // namespace
}  // namespace mvg
