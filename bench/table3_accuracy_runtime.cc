// Reproduces Table 3 plus Figure 8: MVG against the five state-of-the-art
// baselines (1NN-ED, 1NN-DTW, Learning Shapelets, Fast Shapelets,
// SAX-VSM), reporting error rates and runtimes. MVG's runtime is split
// into feature extraction (FE) and train-validate-test (Clf) as in the
// paper; FS runtime is reported alongside, since "FS will be a good and
// strong baseline to which the running time of our approach can be
// compared" (§4.5).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "baselines/fast_shapelets.h"
#include "baselines/learning_shapelets.h"
#include "baselines/nn_classifiers.h"
#include "baselines/sax_vsm.h"
#include "bench/bench_util.h"
#include "core/mvg_classifier.h"
#include "ml/stat_tests.h"
#include "util/executor.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace mvg;

struct Row {
  std::string dataset;
  double ed, dtw, ls, fs, sax, mvg;       // error rates
  double mvg_fe, mvg_clf, fs_time, ls_time;  // seconds
};

}  // namespace

int main() {
  bench::PrintHeader(
      "Table 3 (+ Figs 8-9 data): MVG vs five baselines, accuracy + runtime");
  std::printf("MVG Clf column: histogram training engine, %zu threads "
              "(thread-count invariant results).\n",
              DefaultThreads());

  const std::vector<DatasetSplit> suite = bench::LoadSuite();
  std::vector<Row> rows;
  std::map<std::string, std::vector<double>> errs;

  for (const auto& split : suite) {
    Row row;
    row.dataset = split.train.name();
    std::fprintf(stderr, "[table3] %s...\n", row.dataset.c_str());

    {
      OneNnEuclidean clf;
      clf.Fit(split.train);
      row.ed = bench::TestError(clf, split.test);
    }
    {
      OneNnDtw clf;
      clf.Fit(split.train);
      row.dtw = bench::TestError(clf, split.test);
    }
    {
      WallTimer t;
      LearningShapeletsClassifier::Params p;
      p.max_epochs = 150;
      LearningShapeletsClassifier clf(p);
      clf.Fit(split.train);
      row.ls = bench::TestError(clf, split.test);
      row.ls_time = t.Seconds();
    }
    {
      WallTimer t;
      FastShapeletsClassifier clf;
      clf.Fit(split.train);
      row.fs = bench::TestError(clf, split.test);
      row.fs_time = t.Seconds();
    }
    {
      SaxVsmClassifier clf;
      clf.Fit(split.train);
      row.sax = bench::TestError(clf, split.test);
    }
    {
      MvgClassifier::Config config;
      // The paper's final comparison uses the stacked-generalization
      // classifier built in its §4.3 (Algorithm 2). Training runs on the
      // histogram engine with hardware threads; the reported FE/Clf split
      // is unchanged in meaning (Clf = train-validate wall time) and the
      // fitted model is thread-count invariant.
      config.model = MvgModel::kStacking;
      config.grid = GridPreset::kSmall;
      config.seed = bench::kBenchSeed;
      config.num_threads = 0;  // hardware concurrency
      MvgClassifier clf(config);
      clf.Fit(split.train);
      WallTimer predict_timer;
      row.mvg = bench::TestError(clf, split.test);
      row.mvg_fe = clf.feature_extraction_seconds();
      row.mvg_clf = clf.training_seconds() + predict_timer.Seconds();
    }
    errs["1NN-ED"].push_back(row.ed);
    errs["1NN-DTW"].push_back(row.dtw);
    errs["LS"].push_back(row.ls);
    errs["FS"].push_back(row.fs);
    errs["SAX-VSM"].push_back(row.sax);
    errs["MVG"].push_back(row.mvg);
    rows.push_back(row);
  }

  TablePrinter table({"Dataset", "1NN-ED", "1NN-DTW", "LS", "FS", "SAX-VSM",
                      "MVG", "MVG FE(s)", "MVG Clf(s)", "MVG sum(s)",
                      "FS(s)", "LS(s)"});
  double mvg_total = 0.0, fs_total = 0.0, ls_total = 0.0;
  std::map<std::string, size_t> best_counts;
  for (const Row& r : rows) {
    const double mvg_sum = r.mvg_fe + r.mvg_clf;
    mvg_total += mvg_sum;
    fs_total += r.fs_time;
    ls_total += r.ls_time;
    table.AddRow({r.dataset, FormatDouble(r.ed), FormatDouble(r.dtw),
                  FormatDouble(r.ls), FormatDouble(r.fs), FormatDouble(r.sax),
                  FormatDouble(r.mvg), FormatDouble(r.mvg_fe, 2),
                  FormatDouble(r.mvg_clf, 2), FormatDouble(mvg_sum, 2),
                  FormatDouble(r.fs_time, 2), FormatDouble(r.ls_time, 2)});
    // Count ties-inclusive wins.
    const double best = std::min({r.ed, r.dtw, r.ls, r.fs, r.sax, r.mvg});
    auto tally = [&](const char* name, double v) {
      if (v <= best + 1e-12) ++best_counts[name];
    };
    tally("1NN-ED", r.ed);
    tally("1NN-DTW", r.dtw);
    tally("LS", r.ls);
    tally("FS", r.fs);
    tally("SAX-VSM", r.sax);
    tally("MVG", r.mvg);
  }
  table.Print(std::cout);

  std::printf("\nNumber of best (including ties):\n");
  for (const char* name :
       {"1NN-ED", "1NN-DTW", "LS", "FS", "SAX-VSM", "MVG"}) {
    std::printf("  %-9s %zu\n", name, best_counts[name]);
  }
  std::printf("\nWilcoxon signed-rank vs MVG (paper's bottom row):\n");
  for (const char* name : {"1NN-ED", "1NN-DTW", "LS", "FS", "SAX-VSM"}) {
    const WilcoxonResult w = WilcoxonSignedRank(errs[name], errs["MVG"]);
    std::printf("  %-9s p = %.4f (MVG better on %zu/%zu)\n", name, w.p_value,
                w.b_wins, errs["MVG"].size());
  }
  std::printf("\nTotal runtime: MVG %.1fs | FS %.1fs (%.1fx MVG) | LS %.1fs "
              "(%.1fx MVG)\n",
              mvg_total, fs_total, fs_total / mvg_total, ls_total,
              ls_total / mvg_total);
  std::printf("Paper's claims to check: MVG has the most wins; MVG vs LS "
              "not significant;\nMVG significantly better than FS/1NN-ED; "
              "FS and LS cost a multiple of MVG's runtime.\n");

  std::printf("\n--- Figure 8 scatter pairs (baseline error, MVG error) ---\n");
  for (const Row& r : rows) {
    std::printf("  %-22s ED(%.3f) DTW(%.3f) LS(%.3f) FS(%.3f) SAX(%.3f) "
                "-> MVG %.3f\n",
                r.dataset.c_str(), r.ed, r.dtw, r.ls, r.fs, r.sax, r.mvg);
  }
  std::printf("\n--- Figure 9 scatter pairs (log10 FS seconds, log10 MVG "
              "seconds) ---\n");
  for (const Row& r : rows) {
    std::printf("  %-22s (%.2f, %.2f)\n", r.dataset.c_str(),
                std::log10(std::max(1e-3, r.fs_time)),
                std::log10(std::max(1e-3, r.mvg_fe + r.mvg_clf)));
  }
  return 0;
}
