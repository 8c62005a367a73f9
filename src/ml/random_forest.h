#ifndef MVG_ML_RANDOM_FOREST_H_
#define MVG_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/decision_tree.h"

namespace mvg {

/// Random Forest: bagged CART trees with per-node feature subsampling,
/// probabilities averaged over trees (one of the paper's three generic
/// classifier families, §3.2/§4.3).
///
/// Training runs on the histogram engine by default: the FeatureTable is
/// built once per forest and shared read-only by every tree, and trees are
/// fitted in parallel across `num_threads` workers. Per-tree seeds and
/// bootstrap draws are pre-assigned from the master RNG before any worker
/// starts, so the fitted forest is bit-identical for every thread count.
class RandomForestClassifier : public Classifier {
 public:
  struct Params {
    size_t num_trees = 100;
    size_t max_depth = 16;
    size_t min_samples_leaf = 1;
    /// Features per split; 0 = floor(sqrt(d)).
    size_t max_features = 0;
    bool bootstrap = true;
    uint64_t seed = 42;
    /// Split engine for the trees (histogram default, exact fallback).
    SplitMode split = SplitMode::kHistogram;
    size_t max_bins = FeatureTable::kMaxBins;
    /// Worker threads for tree fitting; results are identical for every
    /// value. Runtime knob only — not serialized.
    size_t num_threads = 1;
    /// Distributed histogram-merge seam (runtime-only, never serialized),
    /// forwarded to every tree. Forces the tree loop sequential so the
    /// allreduce rounds issue in the same order on every rank; the forest
    /// is bit-identical for any worker count. Requires kHistogram split
    /// mode. Not owned.
    HistogramReducer* reducer = nullptr;
  };

  RandomForestClassifier() = default;
  explicit RandomForestClassifier(Params params) : params_(params) {}

  void Fit(const Matrix& x, const std::vector<int>& y) override;
  void FitOnRows(const Matrix& x, const std::vector<int>& y,
                 const std::vector<size_t>& rows) override;
  /// Trains on the row subset `rows` of a pre-binned FeatureTable (the
  /// streaming path; no double feature matrix). Bootstrap draws are made
  /// in compact indexing and mapped to table ids, so the draw sequence —
  /// and the fitted forest — matches for any caller that presents the
  /// same subset. Requires SplitMode::kHistogram.
  void FitBinned(const FeatureTable& ft, const std::vector<int>& y,
                 const std::vector<size_t>& rows) override;
  std::vector<double> PredictProba(const std::vector<double>& x) const override;
  std::unique_ptr<Classifier> Clone() const override;
  std::string Name() const override;
  void SaveBinary(BinaryWriter* w) const override;
  void LoadBinary(BinaryReader* r) override;

  const Params& params() const { return params_; }
  size_t num_trees_fitted() const { return trees_.size(); }

 private:
  /// Matrix entry (Fit/FitOnRows): compact row i reads x[src[i]].
  /// Histogram mode builds a FeatureTable on those rows and runs FitTrees
  /// on it, so a matrix fit and FitBinned on the same table train the
  /// same forest.
  void FitMatrix(const Matrix& x, const std::vector<size_t>& src,
                 const std::vector<size_t>& encoded);

  /// The seed/bootstrap/tree loop every entry point runs. Histogram mode:
  /// `ft` is set, `rows` are table row ids. Exact mode: `ft` is null and
  /// compact row i reads (*x)[rows[i]]. `encoded` is compact.
  void FitTrees(const FeatureTable* ft, const Matrix* x,
                const std::vector<size_t>& rows,
                const std::vector<size_t>& encoded);

  Params params_;
  std::vector<DecisionTreeClassifier> trees_;
};

}  // namespace mvg

#endif  // MVG_ML_RANDOM_FOREST_H_
