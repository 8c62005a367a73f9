#ifndef MVG_CORE_MVG_CLASSIFIER_H_
#define MVG_CORE_MVG_CLASSIFIER_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "baselines/series_classifier.h"
#include "core/feature_extractor.h"
#include "ml/classifier.h"
#include "ml/preprocessing.h"

namespace mvg {

class BinaryReader;
class PagedUcrReader;
class WallTimer;

/// Which generic classifier family sits on top of the graph features
/// (paper §3.2/§4.3).
enum class MvgModel {
  kXgboost,
  kRandomForest,
  kSvm,
  kStacking,  ///< stacked generalization over all three families (Alg. 2).
};

/// How much hyper-parameter search Fit() performs.
enum class GridPreset {
  kNone,   ///< single default configuration, no CV.
  kSmall,  ///< a handful of candidates, 3-fold CV (default; sized for CI).
  kPaper,  ///< the paper's §4.2 grid (3 learning rates x 10 estimator
           ///< counts x 2 depths for XGBoost); expensive.
};

/// End-to-end MVG pipeline (paper §3 + §4): multiscale visibility-graph
/// feature extraction -> random oversampling of minority classes ->
/// (min-max scaling for SVM) -> grid-searched generic classifier.
///
/// Feature-extraction and training wall times are recorded separately,
/// matching Table 3's "FE" and "Clf" runtime columns.
class MvgClassifier : public SeriesClassifier {
 public:
  struct Config {
    MvgConfig extractor;
    MvgModel model = MvgModel::kXgboost;
    GridPreset grid = GridPreset::kSmall;
    bool oversample = true;
    size_t cv_folds = 3;
    /// Base estimators kept per family in the stacked ensemble (paper
    /// Algorithm 2 keeps the top five; small grids need fewer).
    size_t stacking_top_k = 1;
    uint64_t seed = 42;
    /// Worker threads for Fit(): batch feature extraction, grid-search
    /// candidate x fold cells, forest trees and per-class boosting trees.
    /// 0 = hardware concurrency. Fitted models and predictions are
    /// bit-identical for every value (per-tree/per-cell seeds are
    /// pre-assigned), so this is a pure wall-clock knob.
    size_t num_threads = 1;
    /// Escape hatch: train the tree families with exact pre-sorted split
    /// enumeration instead of the default binned histograms (slower;
    /// kept for parity testing and as a reference).
    bool exact_splits = false;
    /// Distributed histogram-merge seam (runtime-only, never serialized;
    /// not owned). When set, this process is one rank of a training
    /// group: tree candidates accumulate histograms over their owned row
    /// slice and allreduce them before split finding, training loops run
    /// sequentially so collectives line up across ranks, and the
    /// recorded wall times are zeroed so every rank writes byte-identical
    /// model files for any worker count. Incompatible with exact_splits.
    class HistogramReducer* reducer = nullptr;
  };

  MvgClassifier();
  explicit MvgClassifier(Config config);

  void Fit(const Dataset& train) override;
  /// Out-of-core Fit: reads the whole UCR file (rewinding `reader` first)
  /// page by page, so peak raw-series memory is O(page) instead of
  /// O(dataset). The tree families stream twice through the pages and
  /// never hold the feature matrix; SVM, stacking and exact_splits fits
  /// accumulate the extracted rows (a few KiB per series). The fitted
  /// model is bit-identical to Fit() on ReadUcrFile of the same file:
  /// pages are processed in file order and sketching/padding/oversampling/
  /// search see exactly the same feature rows.
  void FitPaged(PagedUcrReader* reader);
  int Predict(const Series& s) const override;
  /// Pooled variant: feature extraction routes every graph build through
  /// `ws`, so a workspace reused across predictions reaches zero
  /// steady-state allocation on the graph-construction path. Same result
  /// as Predict(s). This is the serving hot path (ServingSession pools one
  /// workspace per worker).
  int Predict(const Series& s, VgWorkspace* ws) const;
  std::string Name() const override;

  /// Writes the fitted pipeline (extractor config, scaler, model) in the
  /// versioned binary model format of serve/model_io.h (current = v3).
  /// Requires Fit(); implemented in serve/model_io.cc.
  void SaveBinary(std::ostream& os) const;
  /// Legacy v2 writer — migration fixtures and v2-reader tests only.
  void SaveBinaryV2(std::ostream& os) const;
  /// Rebuilds a classifier from SaveBinary (v3) or SaveBinaryV2 (v2)
  /// output, copying everything out of the stream. Predictions of the
  /// loaded pipeline are bit-identical to the saved one. Throws
  /// SerializationError on corrupt, truncated or version-mismatched data.
  static MvgClassifier LoadBinary(std::istream& is);
  /// Zero-copy load over a caller-owned buffer holding a whole v3 file.
  /// Structural validation only (payload CRCs deferred, so construction
  /// is O(1) in file size); see LoadModelView in serve/model_io.h for
  /// the lifetime contract and the full-verification variant.
  static MvgClassifier LoadBinaryView(const void* data, size_t size);

  /// Wall-clock split of the last Fit() (Table 3's FE vs Clf columns).
  double feature_extraction_seconds() const { return fe_seconds_; }
  double training_seconds() const { return train_seconds_; }

  /// Length of the longest training series (0 before Fit); the natural
  /// window size for StreamingClassifier.
  size_t train_length() const { return train_length_; }

  /// Width the feature vectors are padded/truncated to at predict time.
  size_t feature_width() const { return feature_width_; }

  /// True once Fit() (or LoadBinary) produced a usable model.
  bool fitted() const { return model_ != nullptr; }

  /// The fitted underlying model (for importance inspection etc.);
  /// requires Fit().
  const Classifier& model() const;

  /// Names aligned with the extracted features of the training series.
  std::vector<std::string> FeatureNames() const;

  /// Top-k features by XGBoost gain (only when model == kXgboost).
  std::vector<std::pair<std::string, double>> TopFeatures(size_t k) const;

  const Config& config() const { return config_; }
  const MvgFeatureExtractor& extractor() const { return extractor_; }

 private:
  /// Candidate factories with `num_threads` baked into the tree-family
  /// params. Grid-search cells and the cells' internal tree fits share
  /// the persistent executor pool (nested tasks; total concurrency is
  /// capped by the pool, so nesting cannot oversubscribe).
  std::vector<ClassifierFactory> BuildCandidates(size_t num_threads) const;
  std::vector<std::vector<ClassifierFactory>> BuildFamilies(
      size_t num_threads) const;
  size_t ResolvedThreads() const;

  /// Everything Fit() does after feature extraction (oversample, scale,
  /// grid search, final fit) on the matrix path — SVM, stacking and
  /// exact_splits — shared by Fit and FitPaged.
  /// `x` rows must already be padded to a uniform width; `fe_seconds` is
  /// the measured extraction time, `max_len` the longest training series.
  void FitOnExtracted(Matrix x, std::vector<int> y, size_t max_len,
                      double fe_seconds);

  /// True when training runs on the streaming sketch-binned path: tree
  /// families with histogram splits (the default). SVM and stacking
  /// consume raw feature values, and exact_splits sorts them, so those
  /// take the matrix path.
  bool UseSketchBinned() const;

  /// One block of extracted training rows and the series (labels,
  /// lengths) behind them. Rows are zero-padded to the block's widest row
  /// only. A receiver that reads the blocks once may move rows out;
  /// FitSketchBinned's passes only read them.
  using RowBlockFn = std::function<void(Matrix& rows, const Dataset& series)>;
  /// A re-readable training set: each call hands every row to the
  /// callback once, block by block, in training order.
  using RowBlockSource = std::function<void(const RowBlockFn&)>;

  /// Rewinds `reader` and hands each page to `fn`, extracted.
  void ForEachExtractedPage(PagedUcrReader* reader,
                            const RowBlockFn& fn) const;

  /// The streaming sketch-binned fit of the tree families. Pass 1 feeds
  /// `blocks` into the quantile sketches; pass 2 bins every row straight
  /// into a FeatureTable against the sketch cuts, and oversample
  /// duplicates are copied bin-wise. The scaler is fitted from the
  /// sketches' exact bounds, GridSearchBinned picks the candidate and
  /// Classifier::FitBinned refits it — no double feature matrix anywhere.
  /// The in-RAM Fit is the one-block case (its extracted matrix serves
  /// both passes); FitPaged re-extracts the pages for each pass.
  /// `fe_timer` started before extraction; everything up to training
  /// counts as feature extraction time.
  void FitSketchBinned(const RowBlockSource& blocks,
                       const WallTimer& fe_timer);

 public:
  // Model-format internals (serve/model_io.cc) — public only so the
  // framing layer's free functions can reach the section bodies; not API.

  /// Serializes the three model-file section payloads.
  void BuildSections(uint32_t format_version, std::string* pipeline,
                     std::string* scaler, std::string* model) const;
  /// Rebuilds a classifier from section readers already configured with
  /// the source format version (and zero-copy flag, for the mmap path).
  static MvgClassifier FromSectionReaders(BinaryReader* pipeline,
                                          BinaryReader* scaler,
                                          BinaryReader* model);

 private:

  Config config_;
  MvgFeatureExtractor extractor_;
  MinMaxScaler scaler_;
  std::unique_ptr<Classifier> model_;
  size_t feature_width_ = 0;
  size_t train_length_ = 0;
  double fe_seconds_ = 0.0;
  double train_seconds_ = 0.0;
};

}  // namespace mvg

#endif  // MVG_CORE_MVG_CLASSIFIER_H_
