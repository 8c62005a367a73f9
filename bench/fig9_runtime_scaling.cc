// Reproduces Figure 9's runtime story as a controlled scaling experiment:
// wall time of Fast Shapelets vs the MVG pipeline as series length and
// training-set size grow. The paper's claim: FS blows up on long series /
// large training sets while MVG "remains reasonable".

#include <cstdio>

#include "baselines/fast_shapelets.h"
#include "bench/bench_util.h"
#include "core/mvg_classifier.h"
#include "util/executor.h"
#include "util/timer.h"

namespace {

using namespace mvg;

DatasetSplit MakeSized(size_t train, size_t test, size_t length,
                       uint64_t seed) {
  SyntheticInfo info;
  info.name = "scaling";
  info.family = "worms";  // texture classes: no trivial pure split
  info.num_classes = 2;
  info.train_size = train;
  info.test_size = test;
  info.length = length;
  return MakeSynthetic(info, seed);
}

struct Timing {
  double fs = 0.0;
  double mvg = 0.0;
  double mvg_fe = 0.0;   ///< feature extraction share (Table 3 "FE").
  double mvg_clf = 0.0;  ///< train-validate share (Table 3 "Clf").
};

Timing TimeBoth(const DatasetSplit& split) {
  Timing t;
  {
    WallTimer timer;
    FastShapeletsClassifier fs;
    fs.Fit(split.train);
    (void)fs.PredictAll(split.test);
    t.fs = timer.Seconds();
  }
  {
    WallTimer timer;
    MvgClassifier::Config config;
    config.grid = GridPreset::kSmall;
    config.num_threads = 0;  // histogram engine, hardware threads
    MvgClassifier clf(config);
    clf.Fit(split.train);
    (void)clf.PredictAll(split.test);
    t.mvg = timer.Seconds();
    t.mvg_fe = clf.feature_extraction_seconds();
    t.mvg_clf = clf.training_seconds();
  }
  return t;
}

void PrintRow(size_t key, const Timing& t) {
  std::printf("%8zu %12.3f %12.3f %12.3f %12.3f %10.2f\n", key, t.fs, t.mvg,
              t.mvg_fe, t.mvg_clf, t.fs / t.mvg);
}

}  // namespace

int main() {
  bench::PrintHeader("Figure 9: runtime scaling, FS vs MVG");
  std::printf("MVG trains on the histogram engine (%zu threads); FE/Clf is "
              "the Table 3 runtime split.\n",
              DefaultThreads());

  std::printf("\nSweep 1: series length (train=40, test=20)\n");
  std::printf("%8s %12s %12s %12s %12s %10s\n", "length", "FS (s)", "MVG (s)",
              "MVG FE(s)", "MVG Clf(s)", "FS/MVG");
  for (size_t length : {128, 256, 512, 1024, 2048}) {
    const DatasetSplit split = MakeSized(40, 20, length, bench::kBenchSeed);
    PrintRow(length, TimeBoth(split));
  }

  std::printf("\nSweep 2: training-set size (length=256, test=20)\n");
  std::printf("%8s %12s %12s %12s %12s %10s\n", "train", "FS (s)", "MVG (s)",
              "MVG FE(s)", "MVG Clf(s)", "FS/MVG");
  for (size_t train : {20, 40, 80, 160, 320}) {
    const DatasetSplit split = MakeSized(train, 20, 256, bench::kBenchSeed);
    PrintRow(train, TimeBoth(split));
  }

  std::printf(
      "\nPaper's claim to check: the FS/MVG ratio grows with length and\n"
      "training size (Fig. 9 shows up to ~100x on the largest sets); with\n"
      "the binned parallel engine the Clf share stays a small multiple of\n"
      "FE instead of dominating it.\n");
  return 0;
}
