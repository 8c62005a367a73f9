#include "core/mvg_classifier.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "ml/feature_table.h"
#include "ml/gradient_boosting.h"
#include "ml/model_selection.h"
#include "ml/quantile_sketch.h"
#include "ml/random_forest.h"
#include "ml/stacking.h"
#include "ml/svm.h"
#include "ts/paged_ucr_reader.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace mvg {

namespace {

/// Training-engine knobs shared by every tree-family grid entry.
struct EngineOptions {
  SplitMode split = SplitMode::kHistogram;
  size_t num_threads = 1;
  /// Distributed histogram-merge seam, forwarded into every tree-family
  /// candidate (SVM candidates replicate the fit deterministically
  /// instead — their solver has no histogram to merge).
  HistogramReducer* reducer = nullptr;
};

/// XGBoost grids. The paper's grid (§4.2): learning rate in {0.01, 0.1,
/// 0.3}, estimators in {10..100}, depth in {10, 20}, subsample =
/// colsample = 0.5.
std::vector<ClassifierFactory> XgbGrid(GridPreset preset, uint64_t seed,
                                       const EngineOptions& engine) {
  std::vector<GradientBoostingClassifier::Params> grid;
  auto base = [&](double lr, size_t rounds, size_t depth) {
    GradientBoostingClassifier::Params p;
    p.learning_rate = lr;
    p.num_rounds = rounds;
    p.max_depth = depth;
    p.subsample = 0.5;
    p.colsample = 0.5;
    p.min_child_weight = 0.5;
    p.seed = seed;
    p.split = engine.split;
    p.num_threads = engine.num_threads;
    p.reducer = engine.reducer;
    return p;
  };
  switch (preset) {
    case GridPreset::kNone:
      grid.push_back(base(0.05, 200, 6));
      break;
    case GridPreset::kSmall:
      grid.push_back(base(0.08, 120, 5));
      grid.push_back(base(0.3, 40, 3));
      break;
    case GridPreset::kPaper:
      for (double lr : {0.01, 0.1, 0.3}) {
        for (size_t rounds = 10; rounds <= 100; rounds += 10) {
          for (size_t depth : {size_t{10}, size_t{20}}) {
            grid.push_back(base(lr, rounds, depth));
          }
        }
      }
      break;
  }
  std::vector<ClassifierFactory> out;
  for (const auto& p : grid) {
    out.push_back(
        [p]() { return std::make_unique<GradientBoostingClassifier>(p); });
  }
  return out;
}

std::vector<ClassifierFactory> RfGrid(GridPreset preset, uint64_t seed,
                                      const EngineOptions& engine) {
  std::vector<RandomForestClassifier::Params> grid;
  auto base = [&](size_t trees, size_t depth) {
    RandomForestClassifier::Params p;
    p.num_trees = trees;
    p.max_depth = depth;
    p.seed = seed;
    p.split = engine.split;
    p.num_threads = engine.num_threads;
    p.reducer = engine.reducer;
    return p;
  };
  if (preset == GridPreset::kNone) {
    grid.push_back(base(200, 16));
  } else {
    grid.push_back(base(100, 12));
    grid.push_back(base(180, 20));
  }
  std::vector<ClassifierFactory> out;
  for (const auto& p : grid) {
    out.push_back(
        [p]() { return std::make_unique<RandomForestClassifier>(p); });
  }
  return out;
}

std::vector<ClassifierFactory> SvmGrid(GridPreset preset, uint64_t seed) {
  std::vector<SvmClassifier::Params> grid;
  auto base = [&](double c, SvmClassifier::Kernel kernel) {
    SvmClassifier::Params p;
    p.c = c;
    p.kernel = kernel;
    p.seed = seed;
    return p;
  };
  if (preset == GridPreset::kNone) {
    grid.push_back(base(10.0, SvmClassifier::Kernel::kRbf));
  } else {
    grid.push_back(base(1.0, SvmClassifier::Kernel::kRbf));
    grid.push_back(base(10.0, SvmClassifier::Kernel::kRbf));
  }
  std::vector<ClassifierFactory> out;
  for (const auto& p : grid) {
    out.push_back([p]() { return std::make_unique<SvmClassifier>(p); });
  }
  return out;
}

}  // namespace

MvgClassifier::MvgClassifier() : MvgClassifier(Config()) {}

MvgClassifier::MvgClassifier(Config config)
    : config_(config), extractor_(config.extractor) {}

size_t MvgClassifier::ResolvedThreads() const {
  return config_.num_threads == 0 ? DefaultThreads() : config_.num_threads;
}

std::vector<ClassifierFactory> MvgClassifier::BuildCandidates(
    size_t num_threads) const {
  const EngineOptions engine{
      config_.exact_splits ? SplitMode::kExact : SplitMode::kHistogram,
      num_threads, config_.reducer};
  switch (config_.model) {
    case MvgModel::kXgboost:
      return XgbGrid(config_.grid, config_.seed, engine);
    case MvgModel::kRandomForest:
      return RfGrid(config_.grid, config_.seed, engine);
    case MvgModel::kSvm:
      return SvmGrid(config_.grid, config_.seed);
    case MvgModel::kStacking:
      break;
  }
  throw std::logic_error("BuildCandidates: unreachable");
}

std::vector<std::vector<ClassifierFactory>> MvgClassifier::BuildFamilies(
    size_t num_threads) const {
  const EngineOptions engine{
      config_.exact_splits ? SplitMode::kExact : SplitMode::kHistogram,
      num_threads, config_.reducer};
  return {XgbGrid(config_.grid, config_.seed, engine),
          RfGrid(config_.grid, config_.seed, engine),
          SvmGrid(config_.grid, config_.seed)};
}

bool MvgClassifier::UseSketchBinned() const {
  return !config_.exact_splits && (config_.model == MvgModel::kXgboost ||
                                   config_.model == MvgModel::kRandomForest);
}

void MvgClassifier::Fit(const Dataset& train) {
  if (train.empty()) throw std::invalid_argument("MvgClassifier: empty train");
  WallTimer fe_timer;
  Matrix x = extractor_.ExtractAll(train, ResolvedThreads());
  if (UseSketchBinned()) {
    // The one-block case of the streaming fit: both passes visit the
    // already-extracted matrix.
    FitSketchBinned([&](const RowBlockFn& fn) { fn(x, train); }, fe_timer);
    return;
  }
  FitOnExtracted(std::move(x), train.labels(), train.MaxLength(),
                 fe_timer.Seconds());
}

void MvgClassifier::FitPaged(PagedUcrReader* reader) {
  if (reader == nullptr) {
    throw std::invalid_argument("MvgClassifier::FitPaged: null reader");
  }
  WallTimer fe_timer;
  if (UseSketchBinned()) {
    // Each pass re-reads and re-extracts the pages, so peak memory is
    // O(page + sketches + table): the row-major double matrix never
    // exists.
    FitSketchBinned(
        [&](const RowBlockFn& fn) { ForEachExtractedPage(reader, fn); },
        fe_timer);
    return;
  }

  Matrix x;
  std::vector<int> y;
  size_t max_len = 0;
  size_t max_width = 0;
  ForEachExtractedPage(reader, [&](Matrix& rows, const Dataset& page) {
    // Extraction is per-series (one row depends only on its own series),
    // so extracting page by page and padding to the *global* max width at
    // the end yields exactly the matrix ExtractAll builds in one shot —
    // the foundation of the paged-vs-in-RAM bit-identity contract.
    max_len = std::max(max_len, page.MaxLength());
    for (auto& row : rows) {
      max_width = std::max(max_width, row.size());
      x.push_back(std::move(row));
    }
    y.insert(y.end(), page.labels().begin(), page.labels().end());
  });
  if (x.empty()) {
    throw std::invalid_argument("MvgClassifier: empty train");
  }
  for (auto& row : x) row.resize(max_width, 0.0);
  FitOnExtracted(std::move(x), std::move(y), max_len, fe_timer.Seconds());
}

void MvgClassifier::ForEachExtractedPage(PagedUcrReader* reader,
                                         const RowBlockFn& fn) const {
  const size_t threads = ResolvedThreads();
  reader->Reset();
  SeriesPage page;
  while (reader->NextPage(&page)) {
    Dataset chunk;
    for (size_t i = 0; i < page.size(); ++i) {
      chunk.Add(std::move(page.series[i]), page.labels[i]);
    }
    Matrix rows = extractor_.ExtractAll(chunk, threads);
    fn(rows, chunk);
  }
}

void MvgClassifier::FitSketchBinned(const RowBlockSource& blocks,
                                    const WallTimer& fe_timer) {
  // Sketching and binning are collective-free and thread-count invariant,
  // so they keep the full budget even in distributed training.
  const size_t threads = ResolvedThreads();

  // Pass 1 folds every feature row into the quantile sketches and
  // collects labels and lengths. The sketch state is a pure function of
  // the row-ordered stream, so the cuts do not depend on how the rows
  // are blocked: the paged fit equals the in-RAM fit bit for bit.
  CutSketcher sketcher(FeatureTable::kMaxBins);
  std::vector<int> y;
  size_t max_len = 0;
  blocks([&](Matrix& rows, const Dataset& series) {
    sketcher.AddRows(rows, threads);
    y.insert(y.end(), series.labels().begin(), series.labels().end());
    max_len = std::max(max_len, series.MaxLength());
  });
  if (y.empty()) {
    throw std::invalid_argument("MvgClassifier: empty train");
  }
  const CutSketcher::FeatureCuts fc = sketcher.Finish();

  // Oversampling duplicates whole rows, so it happens in index space:
  // pass 2 bins the originals straight into the column-major table, and
  // the duplicates are copied bin-wise afterwards.
  const size_t n = y.size();
  std::vector<size_t> os;
  if (config_.oversample) {
    os = OversampleIndices(y, config_.seed);
  } else {
    os.resize(n);
    std::iota(os.begin(), os.end(), size_t{0});
  }
  std::vector<int> y_os;
  y_os.reserve(os.size());
  for (size_t i : os) y_os.push_back(y[i]);

  FeatureTable ft;
  ft.InitFromCuts(fc.cuts, fc.cut_offset, os.size());
  size_t next_row = 0;
  blocks([&](Matrix& rows, const Dataset&) {
    const size_t base = next_row;
    next_row += rows.size();
    if (next_row > n) return;  // reported below, before any slot overflows.
    ParallelFor(rows.size(), threads, [&](size_t i) {
      ft.BinRowInto(rows[i].data(), rows[i].size(), base + i);
    });
  });
  if (next_row != n) {
    throw std::runtime_error(
        "MvgClassifier::FitPaged: file changed between passes");
  }
  for (size_t i = n; i < os.size(); ++i) ft.CopyRow(os[i], i);
  train_length_ = max_len;
  feature_width_ = ft.num_features();
  fe_seconds_ = fe_timer.Seconds();

  // Distributed training serialises the grid and tree loops (see
  // FitOnExtracted).
  const size_t train_threads = config_.reducer != nullptr ? 1 : threads;
  WallTimer train_timer;
  // The sketches track exact per-feature bounds, and duplication cannot
  // move a min or max, so this scaler state matches Fit() on the
  // materialised (oversampled) matrix exactly.
  scaler_.FitFromBounds(fc.mins, fc.maxs);

  const std::vector<ClassifierFactory> candidates =
      BuildCandidates(train_threads);
  size_t best = 0;
  if (candidates.size() > 1 && config_.grid != GridPreset::kNone) {
    const std::vector<FoldIndices> folds =
        StratifiedKFold(y_os, config_.cv_folds, config_.seed);
    best = GridSearchBinned(candidates, ft, y_os, folds, train_threads)
               .best_index;
  }
  std::vector<size_t> all(ft.num_rows());
  std::iota(all.begin(), all.end(), size_t{0});
  model_ = candidates[best]();
  model_->FitBinned(ft, y_os, all);
  train_seconds_ = train_timer.Seconds();
  if (config_.reducer != nullptr) {
    fe_seconds_ = 0.0;
    train_seconds_ = 0.0;
  }
}

void MvgClassifier::FitOnExtracted(Matrix x, std::vector<int> y,
                                   size_t max_len, double fe_seconds) {
  // Distributed training serialises the grid/stacking/tree loops: every
  // candidate fit issues allreduce rounds, and all ranks must reach them
  // in the same order. (Feature extraction stays parallel — it is
  // collective-free, see Fit/FitPaged.)
  const size_t threads = config_.reducer != nullptr ? 1 : ResolvedThreads();
  train_length_ = max_len;
  feature_width_ = x.empty() ? 0 : x[0].size();
  fe_seconds_ = fe_seconds;

  WallTimer train_timer;
  if (config_.oversample) {
    Matrix x_os;
    std::vector<int> y_os;
    RandomOversample(x, y, config_.seed, &x_os, &y_os);
    x = std::move(x_os);
    y = std::move(y_os);
  }
  // SVM kernels need comparable feature magnitudes (paper §4.3); scaling
  // is harmless for the tree models, so the pipeline always fits the
  // scaler and applies it for SVM and stacking.
  scaler_.Fit(x);
  const bool scale = config_.model == MvgModel::kSvm ||
                     config_.model == MvgModel::kStacking;
  const Matrix& x_used = scale ? scaler_.TransformAll(x) : x;

  if (config_.model == MvgModel::kStacking) {
    // The ensemble fans its candidate x fold cells across the pool and
    // each cell's tree fits submit nested tasks onto the same pool, which
    // caps total concurrency instead of oversubscribing (pre-pool, base
    // candidates had to stay single-threaded to avoid spawn explosions).
    StackingEnsemble::Params sp;
    sp.num_folds = config_.cv_folds;
    sp.seed = config_.seed;
    sp.top_k_per_family = config_.stacking_top_k;
    sp.num_threads = threads;
    model_ = std::make_unique<StackingEnsemble>(BuildFamilies(threads), sp);
    model_->Fit(x_used, y);
  } else {
    // Candidate x fold cells fan out across the thread budget, and each
    // cell's internal tree-level parallelism rides the same pool as
    // nested tasks (fitted models are thread-count invariant, so this is
    // a pure scheduling change); the winning refit then gets the full
    // budget for its internal tree-level parallelism.
    const std::vector<ClassifierFactory> candidates = BuildCandidates(threads);
    size_t best = 0;
    if (candidates.size() > 1 && config_.grid != GridPreset::kNone) {
      best = GridSearch(candidates, x_used, y, config_.cv_folds, config_.seed,
                        threads)
                 .best_index;
    }
    model_ = candidates[best]();
    model_->Fit(x_used, y);
  }
  train_seconds_ = train_timer.Seconds();
  if (config_.reducer != nullptr) {
    // The recorded wall times are serialized into the model's pipeline
    // section; zero them so every rank's model bytes — and reruns with
    // different worker counts — are identical (dist_test and the CI
    // cross-process smoke byte-compare them).
    fe_seconds_ = 0.0;
    train_seconds_ = 0.0;
  }
}

int MvgClassifier::Predict(const Series& s) const {
  VgWorkspace ws;
  return Predict(s, &ws);
}

int MvgClassifier::Predict(const Series& s, VgWorkspace* ws) const {
  if (!model_) throw std::runtime_error("MvgClassifier: not fitted");
  std::vector<double> features = extractor_.Extract(s, ws);
  features.resize(feature_width_, 0.0);
  const bool scale = config_.model == MvgModel::kSvm ||
                     config_.model == MvgModel::kStacking;
  if (scale) features = scaler_.Transform(features);
  return model_->Predict(features);
}

std::string MvgClassifier::Name() const {
  std::string model;
  switch (config_.model) {
    case MvgModel::kXgboost:
      model = "XGBoost";
      break;
    case MvgModel::kRandomForest:
      model = "RF";
      break;
    case MvgModel::kSvm:
      model = "SVM";
      break;
    case MvgModel::kStacking:
      model = "Stacking";
      break;
  }
  return std::string(ToString(config_.extractor.scale_mode)) + "(" + model +
         ")";
}

const Classifier& MvgClassifier::model() const {
  if (!model_) throw std::runtime_error("MvgClassifier: not fitted");
  return *model_;
}

std::vector<std::string> MvgClassifier::FeatureNames() const {
  return extractor_.FeatureNames(train_length_);
}

std::vector<std::pair<std::string, double>> MvgClassifier::TopFeatures(
    size_t k) const {
  const auto* gbt =
      dynamic_cast<const GradientBoostingClassifier*>(model_.get());
  if (gbt == nullptr) {
    throw std::runtime_error("TopFeatures: model is not XGBoost");
  }
  const std::vector<std::string> names = FeatureNames();
  std::vector<std::pair<std::string, double>> out;
  for (size_t f : gbt->TopFeatures(k)) {
    const std::string name =
        f < names.size() ? names[f] : "feature_" + std::to_string(f);
    out.emplace_back(name, gbt->FeatureGains()[f]);
  }
  return out;
}

}  // namespace mvg
