#include "ml/model_selection.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "ml/feature_table.h"
#include "ml/metrics.h"
#include "util/executor.h"
#include "util/random.h"

namespace mvg {

std::vector<FoldIndices> StratifiedKFold(const std::vector<int>& y,
                                         size_t num_folds, uint64_t seed) {
  if (num_folds < 2) {
    throw std::invalid_argument("StratifiedKFold: need >= 2 folds");
  }
  std::map<int, std::vector<size_t>> by_class;
  for (size_t i = 0; i < y.size(); ++i) by_class[y[i]].push_back(i);

  Rng rng(seed);
  std::vector<std::vector<size_t>> fold_members(num_folds);
  for (auto& [label, idx] : by_class) {
    rng.Shuffle(&idx);
    for (size_t i = 0; i < idx.size(); ++i) {
      fold_members[i % num_folds].push_back(idx[i]);
    }
  }
  std::vector<FoldIndices> folds(num_folds);
  for (size_t f = 0; f < num_folds; ++f) {
    folds[f].validation = fold_members[f];
    std::sort(folds[f].validation.begin(), folds[f].validation.end());
    for (size_t o = 0; o < num_folds; ++o) {
      if (o == f) continue;
      folds[f].train.insert(folds[f].train.end(), fold_members[o].begin(),
                            fold_members[o].end());
    }
    std::sort(folds[f].train.begin(), folds[f].train.end());
  }
  return folds;
}

namespace {

/// A fold is usable when both sides are non-empty and its training part
/// covers every label occurring in its validation part (a class with
/// fewer members than folds can leave a gap; such folds cannot score
/// unseen labels and are skipped, as before).
std::vector<char> UsableFolds(const std::vector<FoldIndices>& folds,
                              const std::vector<int>& y) {
  std::vector<char> usable(folds.size(), 0);
  for (size_t f = 0; f < folds.size(); ++f) {
    const FoldIndices& fold = folds[f];
    if (fold.train.empty() || fold.validation.empty()) continue;
    std::vector<int> train_classes;
    train_classes.reserve(fold.train.size());
    for (size_t i : fold.train) train_classes.push_back(y[i]);
    std::sort(train_classes.begin(), train_classes.end());
    train_classes.erase(
        std::unique(train_classes.begin(), train_classes.end()),
        train_classes.end());
    bool label_gap = false;
    for (size_t i : fold.validation) {
      if (!std::binary_search(train_classes.begin(), train_classes.end(),
                              y[i])) {
        label_gap = true;
        break;
      }
    }
    usable[f] = label_gap ? 0 : 1;
  }
  return usable;
}

/// Score of one candidate x fold cell: fit on the fold's train rows (as a
/// view — no matrix copy) and score the validation rows one by one.
double ScoreCell(const ClassifierFactory& factory, const Matrix& x,
                 const std::vector<int>& y, const FoldIndices& fold,
                 bool use_log_loss) {
  std::unique_ptr<Classifier> clf = factory();
  clf->FitOnRows(x, y, fold.train);
  std::vector<int> yval;
  yval.reserve(fold.validation.size());
  for (size_t i : fold.validation) yval.push_back(y[i]);
  if (use_log_loss) {
    Matrix proba;
    proba.reserve(fold.validation.size());
    for (size_t i : fold.validation) proba.push_back(clf->PredictProba(x[i]));
    return LogLoss(yval, proba, clf->classes());
  }
  std::vector<int> pred;
  pred.reserve(fold.validation.size());
  for (size_t i : fold.validation) pred.push_back(clf->Predict(x[i]));
  return ErrorRate(yval, pred);
}

/// ScoreCell on the binned path: fit on the fold's train rows straight
/// from the table, score validation rows through their per-bin
/// representative vectors (exact routing for histogram-trained trees).
double ScoreCellBinned(const ClassifierFactory& factory,
                       const FeatureTable& ft, const std::vector<int>& y,
                       const FoldIndices& fold) {
  std::unique_ptr<Classifier> clf = factory();
  clf->FitBinned(ft, y, fold.train);
  std::vector<int> yval;
  yval.reserve(fold.validation.size());
  for (size_t i : fold.validation) yval.push_back(y[i]);
  Matrix proba;
  proba.reserve(fold.validation.size());
  std::vector<double> rep;
  for (size_t i : fold.validation) {
    ft.RepresentativeRowInto(i, &rep);
    proba.push_back(clf->PredictProba(rep));
  }
  return LogLoss(yval, proba, clf->classes());
}

/// The cross-validation core of every entry point below. The candidate x
/// fold cells are independent, so they all fan out at once onto the
/// executor pool — a cell's own tree-level parallelism submits nested
/// tasks to the same pool rather than spawning — and each candidate's
/// score is reduced in fold order afterwards, so the scores are
/// bit-identical for every thread count and pool size. `score(c, fold)`
/// scores candidate c on one fold; `name` prefixes the error messages.
template <typename ScoreFn>
GridSearchResult SearchCells(const char* name, size_t num_candidates,
                             const std::vector<int>& y,
                             const std::vector<FoldIndices>& folds,
                             size_t num_threads, ScoreFn&& score) {
  if (num_candidates == 0) {
    throw std::invalid_argument(std::string(name) + ": no candidates");
  }
  const std::vector<char> usable = UsableFolds(folds, y);
  const size_t num_cells = num_candidates * folds.size();
  std::vector<double> cell_scores(num_cells, 0.0);
  Executor::Global().ParallelFor(num_cells, num_threads, [&](size_t cell) {
    const size_t c = cell / folds.size();
    const size_t f = cell % folds.size();
    if (usable[f]) cell_scores[cell] = score(c, folds[f]);
  });

  GridSearchResult result;
  result.scores.reserve(num_candidates);
  size_t used = 0;
  for (size_t f = 0; f < folds.size(); ++f) used += usable[f] ? 1 : 0;
  if (used == 0) {
    throw std::runtime_error(std::string(name) + ": no usable folds");
  }
  for (size_t c = 0; c < num_candidates; ++c) {
    double total = 0.0;
    for (size_t f = 0; f < folds.size(); ++f) {
      if (usable[f]) total += cell_scores[c * folds.size() + f];
    }
    result.scores.push_back(total / static_cast<double>(used));
  }
  result.best_index = static_cast<size_t>(
      std::min_element(result.scores.begin(), result.scores.end()) -
      result.scores.begin());
  result.best_score = result.scores[result.best_index];
  return result;
}

/// CV score of one candidate over precomputed folds; `use_log_loss`
/// picks the score.
double CrossValScore(const ClassifierFactory& factory, const Matrix& x,
                     const std::vector<int>& y,
                     const std::vector<FoldIndices>& folds, bool use_log_loss,
                     size_t num_threads) {
  return SearchCells("CrossValScore", 1, y, folds, num_threads,
                     [&](size_t, const FoldIndices& fold) {
                       return ScoreCell(factory, x, y, fold, use_log_loss);
                     })
      .scores[0];
}

}  // namespace

double CrossValLogLoss(const ClassifierFactory& factory, const Matrix& x,
                       const std::vector<int>& y, size_t num_folds,
                       uint64_t seed) {
  return CrossValScore(factory, x, y, StratifiedKFold(y, num_folds, seed),
                       true, 1);
}

double CrossValLogLoss(const ClassifierFactory& factory, const Matrix& x,
                       const std::vector<int>& y,
                       const std::vector<FoldIndices>& folds,
                       size_t num_threads) {
  return CrossValScore(factory, x, y, folds, true, num_threads);
}

double CrossValError(const ClassifierFactory& factory, const Matrix& x,
                     const std::vector<int>& y, size_t num_folds,
                     uint64_t seed) {
  return CrossValScore(factory, x, y, StratifiedKFold(y, num_folds, seed),
                       false, 1);
}

double CrossValError(const ClassifierFactory& factory, const Matrix& x,
                     const std::vector<int>& y,
                     const std::vector<FoldIndices>& folds,
                     size_t num_threads) {
  return CrossValScore(factory, x, y, folds, false, num_threads);
}

GridSearchResult GridSearch(const std::vector<ClassifierFactory>& candidates,
                            const Matrix& x, const std::vector<int>& y,
                            size_t num_folds, uint64_t seed,
                            size_t num_threads) {
  return GridSearch(candidates, x, y, StratifiedKFold(y, num_folds, seed),
                    num_threads);
}

GridSearchResult GridSearch(const std::vector<ClassifierFactory>& candidates,
                            const Matrix& x, const std::vector<int>& y,
                            const std::vector<FoldIndices>& folds,
                            size_t num_threads) {
  return SearchCells("GridSearch", candidates.size(), y, folds, num_threads,
                     [&](size_t c, const FoldIndices& fold) {
                       return ScoreCell(candidates[c], x, y, fold, true);
                     });
}

GridSearchResult GridSearchBinned(
    const std::vector<ClassifierFactory>& candidates, const FeatureTable& ft,
    const std::vector<int>& y, const std::vector<FoldIndices>& folds,
    size_t num_threads) {
  return SearchCells("GridSearchBinned", candidates.size(), y, folds,
                     num_threads, [&](size_t c, const FoldIndices& fold) {
                       return ScoreCellBinned(candidates[c], ft, y, fold);
                     });
}

}  // namespace mvg
