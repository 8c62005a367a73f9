#include "ml/stacking.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "ml/metrics.h"
#include "ml/model_selection.h"
#include "util/binary_io.h"
#include "util/executor.h"

namespace mvg {

StackingEnsemble::StackingEnsemble(
    std::vector<std::vector<ClassifierFactory>> families)
    : StackingEnsemble(std::move(families), Params()) {}

StackingEnsemble::StackingEnsemble(
    std::vector<std::vector<ClassifierFactory>> families, Params params)
    : families_(std::move(families)), params_(params) {
  if (families_.empty()) {
    throw std::invalid_argument("StackingEnsemble: no families");
  }
}

void StackingEnsemble::Fit(const Matrix& x, const std::vector<int>& y) {
  size_t num_candidates = 0;
  for (const auto& family : families_) num_candidates += family.size();
  if (num_candidates == 0) {
    throw std::runtime_error(
        "StackingEnsemble: no candidate factories (deserialized ensembles "
        "are predict-only)");
  }
  const std::vector<size_t> encoded = PrepareFit(x, y);
  const size_t k = encoder_.num_classes();
  // One stratified split, shared by candidate scoring and the out-of-fold
  // predictions (same seed always produced identical folds; now they are
  // computed once instead of once per candidate).
  const auto folds = StratifiedKFold(y, params_.num_folds, params_.seed);

  // Step 1-2: score every candidate by CV log loss; keep top-k per family.
  // Candidates are independent, so they are scored concurrently; a
  // candidate's own tree-level parallelism submits nested tasks onto the
  // shared executor pool, which caps total concurrency instead of
  // oversubscribing (scores are thread-count invariant either way).
  std::vector<const ClassifierFactory*> all_candidates;
  for (const auto& family : families_) {
    for (const auto& factory : family) all_candidates.push_back(&factory);
  }
  std::vector<double> candidate_scores(all_candidates.size(), 0.0);
  Executor::Global().ParallelFor(
      all_candidates.size(), params_.num_threads, [&](size_t c) {
        candidate_scores[c] =
            CrossValLogLoss(*all_candidates[c], x, y, folds);
      });

  std::vector<ClassifierFactory> selected;
  size_t cursor = 0;
  for (const auto& family : families_) {
    std::vector<std::pair<double, size_t>> scored;
    for (size_t c = 0; c < family.size(); ++c) {
      scored.emplace_back(candidate_scores[cursor + c], c);
    }
    cursor += family.size();
    std::sort(scored.begin(), scored.end());
    const size_t take = std::min(params_.top_k_per_family, scored.size());
    for (size_t i = 0; i < take; ++i) {
      selected.push_back(family[scored[i].second]);
    }
  }

  // Step 3: out-of-fold probability predictions per estimator. A fold is
  // usable when its training part covers every class. Each estimator x
  // fold cell trains an independent model on the fold's train rows (a
  // view — no matrix copies) and writes a disjoint slice of oof, so the
  // cells fan out across threads with identical results.
  std::vector<char> fold_usable(folds.size(), 0);
  for (size_t f = 0; f < folds.size(); ++f) {
    const auto& fold = folds[f];
    if (fold.train.empty() || fold.validation.empty()) continue;
    std::vector<int> tc;
    tc.reserve(fold.train.size());
    for (size_t i : fold.train) tc.push_back(y[i]);
    std::sort(tc.begin(), tc.end());
    tc.erase(std::unique(tc.begin(), tc.end()), tc.end());
    fold_usable[f] = tc.size() == k ? 1 : 0;
  }

  std::vector<Matrix> oof(selected.size(),
                          Matrix(x.size(), std::vector<double>(k, 0.0)));
  std::vector<char> has_oof(x.size(), 0);
  const size_t num_cells = selected.size() * folds.size();
  Executor::Global().ParallelFor(
      num_cells, params_.num_threads, [&](size_t cell) {
        const size_t e = cell / folds.size();
        const size_t f = cell % folds.size();
        if (!fold_usable[f]) return;
        std::unique_ptr<Classifier> clf = selected[e]();
        clf->FitOnRows(x, y, folds[f].train);
        for (size_t i : folds[f].validation) {
          oof[e][i] = clf->PredictProba(x[i]);
        }
      });
  for (size_t f = 0; f < folds.size(); ++f) {
    if (!fold_usable[f]) continue;
    for (size_t i : folds[f].validation) has_oof[i] = 1;
  }

  // Step 4: one scalar weight per estimator + per-class bias.
  FitCombiner(oof, encoded, has_oof);

  // Step 5: refit base estimators on the full training data (in parallel —
  // they are independent; slot order keeps the result deterministic).
  base_.clear();
  base_.resize(selected.size());
  Executor::Global().ParallelFor(
      selected.size(), params_.num_threads, [&](size_t e) {
        std::unique_ptr<Classifier> clf = selected[e]();
        clf->Fit(x, y);
        base_[e] = std::move(clf);
      });
}

void StackingEnsemble::FitCombiner(const std::vector<Matrix>& oof_probas,
                                   const std::vector<size_t>& encoded,
                                   const std::vector<char>& has_oof) {
  const size_t num_estimators = oof_probas.size();
  const size_t k = encoder_.num_classes();
  weights_.assign(num_estimators, 1.0);  // start from an equal-weight vote
  bias_.assign(k, 0.0);

  std::vector<size_t> rows;
  for (size_t i = 0; i < has_oof.size(); ++i) {
    if (has_oof[i]) rows.push_back(i);
  }
  if (rows.empty()) return;

  const double lr = 0.2;
  const double l2 = 1e-3;
  std::vector<double> z(k), p(k);
  std::vector<double> gw(num_estimators);
  std::vector<double> gb(k);
  double prev_loss = std::numeric_limits<double>::infinity();
  for (size_t iter = 0; iter < 300; ++iter) {
    std::fill(gw.begin(), gw.end(), 0.0);
    std::fill(gb.begin(), gb.end(), 0.0);
    double loss = 0.0;
    for (size_t i : rows) {
      for (size_t c = 0; c < k; ++c) {
        z[c] = bias_[c];
        for (size_t e = 0; e < num_estimators; ++e) {
          z[c] += weights_[e] * oof_probas[e][i][c];
        }
      }
      const double mx = *std::max_element(z.begin(), z.end());
      double sum = 0.0;
      for (size_t c = 0; c < k; ++c) {
        p[c] = std::exp(z[c] - mx);
        sum += p[c];
      }
      for (size_t c = 0; c < k; ++c) p[c] /= sum;
      loss -= std::log(std::max(1e-15, p[encoded[i]]));
      for (size_t c = 0; c < k; ++c) {
        const double err = p[c] - (encoded[i] == c ? 1.0 : 0.0);
        gb[c] += err;
        for (size_t e = 0; e < num_estimators; ++e) {
          gw[e] += err * oof_probas[e][i][c];
        }
      }
    }
    const double n = static_cast<double>(rows.size());
    loss /= n;
    for (size_t e = 0; e < num_estimators; ++e) {
      loss += 0.5 * l2 * weights_[e] * weights_[e];
    }
    if (prev_loss - loss < 1e-8) break;
    prev_loss = loss;
    for (size_t e = 0; e < num_estimators; ++e) {
      weights_[e] -= lr * (gw[e] / n + l2 * weights_[e]);
    }
    for (size_t c = 0; c < k; ++c) bias_[c] -= lr * gb[c] / n;
  }
}

std::vector<double> StackingEnsemble::PredictProba(
    const std::vector<double>& x) const {
  if (base_.empty()) {
    throw std::runtime_error("StackingEnsemble: not fitted");
  }
  const size_t k = encoder_.num_classes();
  std::vector<double> z(k, 0.0);
  for (size_t c = 0; c < k; ++c) z[c] = bias_.empty() ? 0.0 : bias_[c];
  for (size_t e = 0; e < base_.size(); ++e) {
    const std::vector<double> p = base_[e]->PredictProba(x);
    const double w = e < weights_.size() ? weights_[e] : 1.0;
    for (size_t c = 0; c < k; ++c) z[c] += w * p[c];
  }
  const double mx = *std::max_element(z.begin(), z.end());
  double sum = 0.0;
  std::vector<double> out(k);
  for (size_t c = 0; c < k; ++c) {
    out[c] = std::exp(z[c] - mx);
    sum += out[c];
  }
  for (double& v : out) v /= sum;
  return out;
}

std::unique_ptr<Classifier> StackingEnsemble::Clone() const {
  return std::make_unique<StackingEnsemble>(families_, params_);
}

void StackingEnsemble::SaveBinary(BinaryWriter* w) const {
  w->WriteSize(params_.top_k_per_family);
  w->WriteSize(params_.num_folds);
  w->WriteU64(params_.seed);
  w->WriteSize(families_.size());
  SaveEncoder(w);
  w->WriteDoubleVec(weights_);
  w->WriteDoubleVec(bias_);
  w->WriteSize(base_.size());
  for (const auto& clf : base_) SaveClassifierBinary(*clf, w);
}

void StackingEnsemble::LoadBinary(BinaryReader* r) {
  params_.top_k_per_family = r->ReadSize();
  params_.num_folds = r->ReadSize();
  params_.seed = r->ReadU64();
  // The factories themselves cannot be serialized; candidate-less
  // placeholder families keep Name() faithful while Fit() rejects the
  // predict-only shell.
  families_ =
      std::vector<std::vector<ClassifierFactory>>(r->ReadSize());
  LoadEncoder(r);
  weights_ = r->ReadDoubleVec();
  bias_ = r->ReadDoubleVec();
  const size_t count = r->ReadSize();
  base_.clear();
  base_.reserve(count);
  for (size_t e = 0; e < count; ++e) {
    base_.push_back(LoadClassifierBinary(r));
  }
  // PredictProba indexes bias_ by class and consumes k probabilities from
  // every base estimator, so enforce the cross-array invariants here
  // rather than crashing at predict time on a crafted/corrupt section.
  const size_t k = encoder_.num_classes();
  if (weights_.size() != base_.size()) {
    throw SerializationError("Stacking: weight/estimator count mismatch");
  }
  if (!bias_.empty() && bias_.size() != k) {
    throw SerializationError("Stacking: bias size " +
                             std::to_string(bias_.size()) + " != " +
                             std::to_string(k) + " classes");
  }
  for (const auto& clf : base_) {
    if (clf->num_classes() != k) {
      throw SerializationError(
          "Stacking: base estimator class count mismatch");
    }
  }
}

std::string StackingEnsemble::Name() const {
  return "Stacking(families=" + std::to_string(families_.size()) +
         ",top_k=" + std::to_string(params_.top_k_per_family) + ")";
}

std::vector<std::string> StackingEnsemble::SelectedNames() const {
  std::vector<std::string> names;
  names.reserve(base_.size());
  for (const auto& clf : base_) names.push_back(clf->Name());
  return names;
}

}  // namespace mvg
