// Evaluates the paper's §6 future-work directions, implemented here:
//   (a) richer graph features (degree-distribution entropy, clustering,
//       betweenness centrality, weighted-VG view-angle statistics,
//       directed-VG degree entropies) — "we plan to further investigate
//       other useful and efficient graph features ... in order to further
//       improve its accuracy";
//   (b) multivariate TSC — "we are also excited to investigate the
//       possibility of adopting MVG for multivariate TSC";
//   (c) parallel feature extraction — §1 claims the process "is inherently
//       parallel"; we verify identical outputs and report speedup (equal
//       to 1 on a single-core machine by construction).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/multivariate_classifier.h"
#include "core/mvg_classifier.h"
#include "ml/metrics.h"
#include "ml/stat_tests.h"
#include "util/executor.h"
#include "util/timer.h"

namespace {

using namespace mvg;

double RunFeatureMode(FeatureMode mode, const DatasetSplit& split) {
  MvgClassifier::Config config;
  config.extractor.feature_mode = mode;
  config.grid = GridPreset::kNone;
  config.seed = bench::kBenchSeed;
  MvgClassifier clf(config);
  clf.Fit(split.train);
  return bench::TestError(clf, split.test);
}

}  // namespace

int main() {
  bench::PrintHeader("Extensions (paper §6 future work)");

  // --- (a) extended features ---
  std::printf("\n(a) kAll vs kExtended features, error per dataset\n");
  std::printf("%-22s %10s %10s\n", "dataset", "All", "Extended");
  std::vector<double> err_all, err_ext;
  for (const auto& split : bench::LoadSuite()) {
    const double a = RunFeatureMode(FeatureMode::kAll, split);
    const double e = RunFeatureMode(FeatureMode::kExtended, split);
    err_all.push_back(a);
    err_ext.push_back(e);
    std::printf("%-22s %10.3f %10.3f\n", split.train.name().c_str(), a, e);
  }
  const WilcoxonResult w = WilcoxonSignedRank(err_all, err_ext);
  std::printf("Extended better on %zu/%zu datasets (worse on %zu), "
              "Wilcoxon p = %.4f\n",
              w.b_wins, err_all.size(), w.a_wins, w.p_value);

  // --- (b) multivariate ---
  std::printf("\n(b) Multivariate MVG (3-channel coupled oscillators)\n");
  const MultivariateSplit multi =
      MakeSyntheticMultivariate(3, 3, 45, 60, 160, bench::kBenchSeed);
  {
    MvgMultivariateClassifier clf;
    clf.Fit(multi.train);
    const double err =
        ErrorRate(multi.test.labels(), clf.PredictAll(multi.test));
    std::printf("  all channels:   error = %.3f (FE %.2fs, Clf %.2fs)\n", err,
                clf.feature_extraction_seconds(), clf.training_seconds());
  }
  // Single best channel for contrast: cross-channel structure must help.
  for (size_t c = 0; c < 3; ++c) {
    MvgClassifier::Config config;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    clf.Fit(multi.train.Channel(c));
    const double err =
        ErrorRate(multi.test.labels(), clf.PredictAll(multi.test.Channel(c)));
    std::printf("  channel %zu only: error = %.3f\n", c, err);
  }

  // --- (c) parallel extraction ---
  std::printf("\n(c) Parallel feature extraction (threads -> seconds, "
              "hardware threads = %zu)\n",
              DefaultThreads());
  const DatasetSplit big = MakeSyntheticByName("SynFordA", bench::kBenchSeed);
  const MvgFeatureExtractor fx;
  Matrix reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    WallTimer t;
    const Matrix x = fx.ExtractAll(big.train, threads);
    const double secs = t.Seconds();
    if (threads == 1) reference = x;
    std::printf("  threads=%zu: %.3fs, identical to sequential: %s\n",
                threads, secs, x == reference ? "yes" : "NO (bug!)");
  }
  return 0;
}
