#include "ml/random_forest.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "ml/histogram_reducer.h"
#include "util/binary_io.h"
#include "util/parallel.h"
#include "util/random.h"

namespace mvg {

void RandomForestClassifier::Fit(const Matrix& x, const std::vector<int>& y) {
  const std::vector<size_t> encoded = PrepareFit(x, y);
  std::vector<size_t> src(x.size());
  std::iota(src.begin(), src.end(), size_t{0});
  FitMatrix(x, src, encoded);
}

void RandomForestClassifier::FitOnRows(const Matrix& x,
                                       const std::vector<int>& y,
                                       const std::vector<size_t>& rows) {
  const std::vector<size_t> encoded = PrepareFitOnRows(x, y, rows);
  FitMatrix(x, rows, encoded);
}

void RandomForestClassifier::FitBinned(const FeatureTable& ft,
                                       const std::vector<int>& y,
                                       const std::vector<size_t>& rows) {
  if (params_.split != SplitMode::kHistogram) {
    throw std::invalid_argument(
        "RandomForest: FitBinned requires histogram split mode");
  }
  const std::vector<size_t> encoded =
      PrepareFitBinned(ft.num_rows(), y, rows);
  FitTrees(&ft, nullptr, rows, encoded);
}

void RandomForestClassifier::FitMatrix(const Matrix& x,
                                       const std::vector<size_t>& src,
                                       const std::vector<size_t>& encoded) {
  if (params_.split != SplitMode::kHistogram) {
    FitTrees(nullptr, &x, src, encoded);
    return;
  }
  // Bin once and train on the table, exactly as FitBinned does: table row
  // i is x[src[i]].
  FeatureTable ft;
  ft.Build(x, src, params_.max_bins);
  std::vector<size_t> all(src.size());
  std::iota(all.begin(), all.end(), size_t{0});
  FitTrees(&ft, nullptr, all, encoded);
}

void RandomForestClassifier::FitTrees(const FeatureTable* ft, const Matrix* x,
                                      const std::vector<size_t>& rows,
                                      const std::vector<size_t>& encoded) {
  const bool hist = ft != nullptr;
  if (params_.reducer != nullptr && !hist) {
    throw std::invalid_argument(
        "RandomForest: distributed training requires histogram split mode");
  }
  const size_t n = rows.size();
  const size_t d = hist ? ft->num_features() : (*x)[rows[0]].size();
  const size_t num_classes = encoder_.num_classes();
  const size_t mtry =
      params_.max_features > 0
          ? params_.max_features
          : std::max<size_t>(1, static_cast<size_t>(std::sqrt(
                                    static_cast<double>(d))));

  // The trees address rows by id: table row ids in histogram mode, compact
  // ids in exact mode (whose builder reads x[rows[id]]). Labels are
  // id-indexed, so the compact encoding is scattered into a table-sized
  // vector in histogram mode (rows outside the subset are never visited).
  const auto id = [&](size_t i) { return hist ? rows[i] : i; };
  std::vector<size_t> y_ids = encoded;
  if (hist) {
    y_ids.assign(ft->num_rows(), 0);
    for (size_t i = 0; i < n; ++i) y_ids[rows[i]] = encoded[i];
  }

  // Pre-assign every tree's seed and bootstrap rows from the master RNG in
  // tree order (draws in compact indexing, mapped to ids), so the fitted
  // forest does not depend on how many executor workers later share (or
  // steal chunks of) the tree loop, nor on the pool size when this fit
  // runs nested inside a grid/stacking cell — and every entry point
  // presenting the same rows fits the same forest.
  Rng rng(params_.seed);
  std::vector<uint64_t> tree_seeds(params_.num_trees);
  std::vector<std::vector<size_t>> tree_rows(params_.num_trees);
  for (size_t t = 0; t < params_.num_trees; ++t) {
    tree_seeds[t] = rng.engine()();
    std::vector<size_t>& trows = tree_rows[t];
    trows.resize(n);
    for (size_t i = 0; i < n; ++i) {
      trows[i] = id(params_.bootstrap ? rng.Index(n) : i);
    }
  }

  // Distributed fits run the tree loop sequentially: every tree issues
  // allreduce rounds, and all ranks must reach them in the same order.
  const size_t tree_threads =
      params_.reducer != nullptr ? 1 : params_.num_threads;
  trees_.assign(params_.num_trees, DecisionTreeClassifier());
  ParallelFor(params_.num_trees, tree_threads, [&](size_t t) {
    DecisionTreeClassifier::Params tp;
    tp.max_depth = params_.max_depth;
    tp.min_samples_leaf = params_.min_samples_leaf;
    tp.max_features = mtry;
    tp.seed = tree_seeds[t];
    tp.split = params_.split;
    tp.max_bins = params_.max_bins;
    tp.reducer = params_.reducer;
    trees_[t] = DecisionTreeClassifier(tp);
    if (hist) {
      trees_[t].FitBinned(*ft, y_ids, num_classes, tree_rows[t]);
    } else {
      trees_[t].FitExactOnView(*x, rows, y_ids, num_classes, tree_rows[t]);
    }
  });
}

std::vector<double> RandomForestClassifier::PredictProba(
    const std::vector<double>& x) const {
  std::vector<double> acc(encoder_.num_classes(), 0.0);
  if (trees_.empty()) return acc;
  for (const auto& tree : trees_) {
    const std::vector<double> p = tree.PredictProba(x);
    for (size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  for (double& v : acc) v /= static_cast<double>(trees_.size());
  return acc;
}

std::unique_ptr<Classifier> RandomForestClassifier::Clone() const {
  return std::make_unique<RandomForestClassifier>(params_);
}

std::string RandomForestClassifier::Name() const {
  return "RandomForest(trees=" + std::to_string(params_.num_trees) +
         ",depth=" + std::to_string(params_.max_depth) + ")";
}

void RandomForestClassifier::SaveBinary(BinaryWriter* w) const {
  w->WriteSize(params_.num_trees);
  w->WriteSize(params_.max_depth);
  w->WriteSize(params_.min_samples_leaf);
  w->WriteSize(params_.max_features);
  w->WriteBool(params_.bootstrap);
  w->WriteU64(params_.seed);
  w->WriteU8(static_cast<uint8_t>(params_.split));
  w->WriteSize(params_.max_bins);
  SaveEncoder(w);
  w->WriteSize(trees_.size());
  for (const DecisionTreeClassifier& tree : trees_) tree.SaveBinary(w);
}

void RandomForestClassifier::LoadBinary(BinaryReader* r) {
  params_.num_trees = r->ReadSize();
  params_.max_depth = r->ReadSize();
  params_.min_samples_leaf = r->ReadSize();
  params_.max_features = r->ReadSize();
  params_.bootstrap = r->ReadBool();
  params_.seed = r->ReadU64();
  const uint8_t split = r->ReadU8();
  if (split > static_cast<uint8_t>(SplitMode::kExact)) {
    throw SerializationError("RandomForest: out-of-range split mode");
  }
  params_.split = static_cast<SplitMode>(split);
  params_.max_bins = r->ReadSize();
  LoadEncoder(r);
  const size_t count = r->ReadSize();
  trees_.assign(count, DecisionTreeClassifier());
  for (DecisionTreeClassifier& tree : trees_) tree.LoadBinary(r);
}

}  // namespace mvg
