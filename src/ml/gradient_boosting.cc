#include "ml/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "ml/hist_kernels.h"
#include "ml/histogram_reducer.h"
#include "obs/obs.h"
#include "util/binary_io.h"
#include "util/parallel.h"
#include "util/random.h"

namespace mvg {

namespace {

/// Numerically stable softmax, allocation-free (the fused gradient pass
/// calls this once per row per round).
void SoftmaxInto(const double* logits, size_t k, double* p) {
  double mx = logits[0];
  for (size_t i = 1; i < k; ++i) mx = std::max(mx, logits[i]);
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    p[i] = std::exp(logits[i] - mx);
    sum += p[i];
  }
  for (size_t i = 0; i < k; ++i) p[i] /= sum;
}

std::vector<double> Softmax(const std::vector<double>& logits) {
  std::vector<double> p(logits.size());
  SoftmaxInto(logits.data(), logits.size(), p.data());
  return p;
}

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

// ---------------------------------------------------------------------------
// Histogram split engine for the regression trees: per (column, bin) sums
// of gradients and hessians. Same machinery as the classification tree's —
// one shared row-index buffer partitioned in place, a free-list pool of
// node histograms, only the smaller child scanned and its sibling derived
// by subtraction — restricted to the tree's `cols` subset (column sampling
// is per tree, so the subset is consistent across parent and children and
// the subtraction trick stays valid).
// ---------------------------------------------------------------------------

struct GradientBoostingClassifier::HistBuilder {
  const FeatureTable& ft;
  /// Row-interleaved per-row gradients/hessians: gh[2r] = grad(r),
  /// gh[2r+1] = hess(r). One cache line serves both halves of a row, and
  /// the scan's paired cell update is a single two-lane vector add.
  const std::vector<double>& gh;
  const Params& params;
  const std::vector<size_t>& cols;
  Tree* tree;
  std::vector<double>* gains;
  /// When non-null, records per node (aligned with tree->push_back order)
  /// the split's bin id — 0 for leaves — so the binned logit update can
  /// descend without double features.
  std::vector<uint16_t>* node_bins = nullptr;

  std::vector<size_t> rows;
  std::vector<size_t> scratch;
  RowStage stage;  ///< 32-bit staged rows for the scans.
  /// Shared pool machinery (free list, all-zero invariant, dirty-span
  /// bookkeeping, sibling subtraction); slot j = cols[j], 2 doubles per
  /// bin (grad, hess).
  NodeHistogramPool hpool;

  /// Distributed mode (red != nullptr): per-row gradients/hessians are
  /// quantized ONCE to int64 fixed point (scale kGradHessScale), all
  /// accumulation happens in int64 — exact and associative, so global
  /// sums are independent of the worker count and reduction order — and
  /// the reduced sums are descaled to double exactly once. Each rank
  /// accumulates only compact rows in [own_begin, own_end).
  HistogramReducer* red = nullptr;
  size_t own_begin = 0, own_end = 0;
  std::vector<int64_t> gq, hq;  ///< quantized per-row grad/hess.
  std::vector<int64_t> ibuf;    ///< int64 histogram staging.

  HistBuilder(const FeatureTable& ft_in, const std::vector<double>& gh_in,
              const Params& params_in, const std::vector<size_t>& cols_in,
              Tree* tree_in, std::vector<double>* gains_in)
      : ft(ft_in), gh(gh_in), params(params_in), cols(cols_in), tree(tree_in),
        gains(gains_in), hpool(ft_in, cols_in, 2) {
    red = params.reducer;
    if (red != nullptr) {
      own_begin = OwnedRowsBegin(ft.num_rows(), red->rank(), red->world_size());
      own_end = OwnedRowsEnd(ft.num_rows(), red->rank(), red->world_size());
      const size_t n = gh.size() / 2;
      gq.resize(n);
      hq.resize(n);
      for (size_t r = 0; r < n; ++r) {
        gq[r] = QuantizeGradHess(gh[2 * r]);
        hq[r] = QuantizeGradHess(gh[2 * r + 1]);
      }
      ibuf.resize(hpool.hist_size());
    }
  }

  /// Accumulates (grad, hess) sums of rows[begin, end) into buffer `buf`
  /// (all-zero by the pool invariant), recording the dirty spans.
  void Scan(size_t begin, size_t end, size_t buf) {
    obs::Count(obs::PipelineMetrics::Get().train_hist_node_builds);
    if (red != nullptr) {
      ScanReduced(begin, end, buf);
      return;
    }
    double* h = hpool.hist(buf);
    uint16_t* plo = hpool.lo(buf);
    uint16_t* phi = hpool.hi(buf);
    // Stage the rows once (32-bit ids, contiguity detection), then run the
    // vector pair-scan kernel per tracked column — rows accumulate in
    // staged order, so the FP sums match the scalar loop bit for bit (see
    // hist_kernels.h).
    stage.StageRows(rows, begin, end);
    for (size_t j = 0; j < cols.size(); ++j) {
      PairScan(ft.column(cols[j]), stage, gh.data(),
               h + hpool.slot_offset(j), plo + j, phi + j);
    }
  }

  /// Distributed Scan: accumulate owned rows in int64, allreduce, descale
  /// into the pool buffer with full-range dirty spans (empty bins sweep
  /// as zero; this keeps the reducer interface to one AllreduceSum). The
  /// collective makes Scan order-sensitive: every rank must issue the
  /// same Scans in the same order, which is why distributed fits run the
  /// tree loop single-threaded.
  void ScanReduced(size_t begin, size_t end, size_t buf) {
    std::fill(ibuf.begin(), ibuf.end(), int64_t{0});
    for (size_t j = 0; j < cols.size(); ++j) {
      const uint8_t* col = ft.column(cols[j]);
      int64_t* base = ibuf.data() + hpool.slot_offset(j);
      for (size_t i = begin; i < end; ++i) {
        const size_t r = rows[i];
        if (r < own_begin || r >= own_end) continue;
        int64_t* cell = base + static_cast<size_t>(col[r]) * 2;
        cell[0] += gq[r];
        cell[1] += hq[r];
      }
    }
    red->AllreduceSum(ibuf.data(), ibuf.size());
    double* h = hpool.hist(buf);
    uint16_t* plo = hpool.lo(buf);
    uint16_t* phi = hpool.hi(buf);
    for (size_t j = 0; j < cols.size(); ++j) {
      const int64_t* src = ibuf.data() + hpool.slot_offset(j);
      double* base = h + hpool.slot_offset(j);
      const size_t cells = ft.num_bins(cols[j]) * 2;
      for (size_t c = 0; c < cells; ++c) base[c] = DequantizeGradHess(src[c]);
      plo[j] = 0;
      phi[j] = static_cast<uint16_t>(ft.num_bins(cols[j]) - 1);
    }
  }

  /// Sentinel for "no histogram yet": Build computes one lazily, and only
  /// after the cheap leaf checks — children that terminate never pay for a
  /// histogram at all.
  static constexpr size_t kNoBuf = NodeHistogramPool::kNone;

  void Run(const std::vector<size_t>& node_rows) {
    rows = node_rows;
    scratch.resize(rows.size());
    Build(0, rows.size(), 0, kNoBuf);
  }

  int32_t Build(size_t begin, size_t end, size_t depth, size_t buf) {
    const size_t n = end - begin;

    double g_sum = 0.0, h_sum = 0.0;
    if (red != nullptr) {
      // Node totals are a (small) collective too, so leaf weights and
      // stopping decisions are global and identical on every rank.
      int64_t acc[2] = {0, 0};
      for (size_t i = begin; i < end; ++i) {
        const size_t r = rows[i];
        if (r < own_begin || r >= own_end) continue;
        acc[0] += gq[r];
        acc[1] += hq[r];
      }
      red->AllreduceSum(acc, 2);
      g_sum = DequantizeGradHess(acc[0]);
      h_sum = DequantizeGradHess(acc[1]);
    } else {
      for (size_t i = begin; i < end; ++i) {
        const double* cell = gh.data() + 2 * rows[i];
        g_sum += cell[0];
        h_sum += cell[1];
      }
    }

    auto make_leaf = [&]() {
      TreeNode leaf;
      leaf.weight = -g_sum / (h_sum + params.lambda);
      if (buf != kNoBuf) hpool.Release(buf);
      tree->push_back(leaf);
      if (node_bins != nullptr) node_bins->push_back(0);
      return static_cast<int32_t>(tree->size() - 1);
    };

    if (depth >= params.max_depth || n < 2) return make_leaf();

    if (buf == kNoBuf) {
      buf = hpool.Acquire();
      Scan(begin, end, buf);
    }
    const double* hist = hpool.hist(buf);

    const double parent_score = g_sum * g_sum / (h_sum + params.lambda);
    double best_gain = params.gamma + 1e-12;
    int best_feature = -1;
    size_t best_bin = 0;
    double best_threshold = 0.0;
    obs::Count(obs::PipelineMetrics::Get().train_split_searches);

    for (size_t j = 0; j < cols.size(); ++j) {
      const size_t f = cols[j];
      const size_t nb = ft.num_bins(f);
      if (nb < 2) continue;
      const double* fh = hist + hpool.slot_offset(j);
      // Bins below lo are empty for this node (cumulative sums start at
      // zero there) and boundaries at/after hi leave nothing on the right.
      const size_t lo = hpool.lo(buf)[j];
      const size_t hi = hpool.hi(buf)[j];
      double gl = 0.0, hl = 0.0;
      for (size_t b = lo; b + 1 < nb && b < hi; ++b) {
        const double bin_h = fh[b * 2 + 1];
        gl += fh[b * 2];
        hl += bin_h;
        const double gr = g_sum - gl, hr = h_sum - hl;
        // Every row carries hess >= 1e-12, far above the subtraction's
        // rounding noise, so hr <= 0 means the node's rows are exhausted
        // and every later boundary is empty too.
        if (hr <= 0.0) break;
        // A bin with no rows adds no new boundary — the analogue of the
        // exact sweep's equal-value skip.
        if (bin_h == 0.0) continue;
        if (hl < params.min_child_weight || hr < params.min_child_weight) {
          continue;
        }
        const double gain = 0.5 * (gl * gl / (hl + params.lambda) +
                                   gr * gr / (hr + params.lambda) -
                                   parent_score);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_bin = b;
          best_threshold = ft.threshold(f, b);
        }
      }
    }

    if (best_feature < 0) return make_leaf();

    const size_t mid = StablePartitionRows(
        rows, scratch, begin, end,
        ft.column(static_cast<size_t>(best_feature)), best_bin);
    if (mid == begin || mid == end) return make_leaf();

    (*gains)[static_cast<size_t>(best_feature)] += best_gain;

    TreeNode internal;
    internal.feature = best_feature;
    internal.threshold = best_threshold;
    tree->push_back(internal);
    if (node_bins != nullptr) {
      node_bins->push_back(static_cast<uint16_t>(best_bin));
    }
    const int32_t id = static_cast<int32_t>(tree->size() - 1);

    // Scan only the smaller child and derive its sibling by subtraction
    // when that beats rescanning; small nodes fall back to lazy per-child
    // scans.
    const auto child = hpool.PlanChildren(
        buf, begin, mid, end, cols.size(),
        [&](size_t b, size_t e, size_t t) { Scan(b, e, t); });
    const int32_t left_id = Build(begin, mid, depth + 1, child.left);
    const int32_t right_id = Build(mid, end, depth + 1, child.right);
    (*tree)[id].left = left_id;
    (*tree)[id].right = right_id;
    return id;
  }
};

// ---------------------------------------------------------------------------
// Fitting.
// ---------------------------------------------------------------------------

void GradientBoostingClassifier::Fit(const Matrix& x,
                                     const std::vector<int>& y) {
  const std::vector<size_t> encoded = PrepareFit(x, y);
  std::vector<size_t> src(x.size());
  std::iota(src.begin(), src.end(), size_t{0});
  FitMatrix(x, src, encoded);
}

void GradientBoostingClassifier::FitOnRows(const Matrix& x,
                                           const std::vector<int>& y,
                                           const std::vector<size_t>& rows) {
  const std::vector<size_t> encoded = PrepareFitOnRows(x, y, rows);
  FitMatrix(x, rows, encoded);
}

void GradientBoostingClassifier::FitBinned(const FeatureTable& ft,
                                           const std::vector<int>& y,
                                           const std::vector<size_t>& rows) {
  const std::vector<size_t> encoded =
      PrepareFitBinned(ft.num_rows(), y, rows);
  if (params_.split != SplitMode::kHistogram) {
    throw std::invalid_argument(
        "GradientBoosting: FitBinned requires histogram split mode");
  }
  FitRounds(&ft, nullptr, rows, encoded);
}

void GradientBoostingClassifier::FitMatrix(const Matrix& x,
                                           const std::vector<size_t>& src,
                                           const std::vector<size_t>& encoded) {
  if (params_.split != SplitMode::kHistogram) {
    FitRounds(nullptr, &x, src, encoded);
    return;
  }
  // Histogram mode bins the rows once and trains on the table, exactly as
  // FitBinned does: table row i is x[src[i]].
  FeatureTable ft;
  ft.Build(x, src, params_.max_bins);
  std::vector<size_t> all(src.size());
  std::iota(all.begin(), all.end(), size_t{0});
  FitRounds(&ft, nullptr, all, encoded);
}

void GradientBoostingClassifier::FitRounds(const FeatureTable* ft,
                                           const Matrix* x,
                                           const std::vector<size_t>& rows,
                                           const std::vector<size_t>& encoded) {
  const bool hist = ft != nullptr;
  if (params_.reducer != nullptr && !hist) {
    throw std::invalid_argument(
        "GradientBoosting: distributed training requires histogram split "
        "mode");
  }
  const size_t n = rows.size();
  const size_t d = hist ? ft->num_features() : (*x)[rows[0]].size();
  const size_t k = encoder_.num_classes();
  num_features_ = d;
  feature_gain_.assign(d, 0.0);
  ResetStorage();

  const bool binary = k == 2;
  const size_t num_outputs = binary ? 1 : k;
  trees_per_round_ = num_outputs;
  // Distributed fits run the per-output tree loop sequentially: every
  // tree issues allreduce rounds, and all ranks must reach them in the
  // same order. The per-sample loss/logit loops stay parallel — they
  // are collective-free.
  const size_t tree_threads =
      params_.reducer != nullptr ? 1 : params_.num_threads;

  // Base score: log-odds (binary) / log-prior (softmax).
  base_score_.assign(num_outputs, 0.0);
  if (binary) {
    double pos = 0.0;
    for (size_t c : encoded) pos += static_cast<double>(c);
    const double p = std::clamp(pos / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
    base_score_[0] = std::log(p / (1.0 - p));
  }

  // Logits/probs are compact (one slot per training row). The tree
  // builders address rows by id: table row ids in histogram mode (so the
  // scans and the distributed row-ownership ranges work on table ids
  // unchanged), compact ids in exact mode (whose builder reads
  // x[rows[id]]). The row-interleaved gradient/hessian buffers —
  // ghs[out][2id] = grad, ghs[out][2id+1] = hess, the layout the scans
  // consume — are id-indexed; ids outside the subset stay zero and are
  // never visited.
  const auto id = [&](size_t i) { return hist ? rows[i] : i; };
  const size_t num_ids = hist ? ft->num_rows() : n;
  Matrix logits(n, base_score_);
  Matrix probs(n, std::vector<double>(num_outputs));
  std::vector<std::vector<double>> ghs(num_outputs,
                                       std::vector<double>(2 * num_ids, 0.0));
  std::vector<std::vector<double>> out_gains(num_outputs,
                                             std::vector<double>(d));

  // Per-sample loops are cheap per item; the pool's grain-size path keeps
  // them inline below this many rows and never claims smaller chunks, so
  // dispatch overhead stays amortised. Invariance does not depend on it.
  constexpr size_t kRowGrain = 512;

  Rng rng(params_.seed);
  for (size_t round = 0; round < params_.num_rounds; ++round) {
    obs::ObsSpan round_span(obs::PipelineMetrics::Get().gbt_round_seconds);
    // Row subsample (shared across the round's trees): drawn in compact
    // indexing, so the draw sequence is the same for every entry point,
    // then mapped to ids.
    std::vector<size_t> sample;
    if (params_.subsample < 1.0) {
      const size_t take = std::max<size_t>(
          2, static_cast<size_t>(params_.subsample * static_cast<double>(n)));
      sample = rng.Sample(n, take);
    } else {
      sample.resize(n);
      std::iota(sample.begin(), sample.end(), size_t{0});
    }
    for (size_t& i : sample) i = id(i);
    // Column subsample per tree — pre-drawn in output order so the
    // parallel tree workers never touch the shared RNG.
    std::vector<std::vector<size_t>> cols(num_outputs);
    for (size_t out = 0; out < num_outputs; ++out) {
      if (params_.colsample < 1.0) {
        const size_t take = std::max<size_t>(
            1,
            static_cast<size_t>(params_.colsample * static_cast<double>(d)));
        cols[out] = rng.Sample(d, take);
      } else {
        cols[out].resize(d);
        std::iota(cols[out].begin(), cols[out].end(), size_t{0});
      }
    }

    // Fused softmax-gradient pass: one row-parallel sweep computes the
    // probabilities AND every output's (grad, hess) pair straight into the
    // interleaved buffers. Each (row, output) cell is a pure function of
    // that row's logits, so the fusion (and the thread partitioning) is
    // invisible in the results.
    ParallelFor(
        n, params_.num_threads,
        [&](size_t i) {
          const double* lg = logits[i].data();
          double* pr = probs[i].data();
          if (binary) {
            pr[0] = Sigmoid(lg[0]);
          } else {
            SoftmaxInto(lg, num_outputs, pr);
          }
          for (size_t out = 0; out < num_outputs; ++out) {
            const double p = pr[binary ? 0 : out];
            const double target =
                (binary ? encoded[i] == 1 : encoded[i] == out) ? 1.0 : 0.0;
            double* cell = ghs[out].data() + 2 * id(i);
            cell[0] = p - target;
            cell[1] = std::max(1e-12, p * (1.0 - p));
          }
        },
        kRowGrain);

    // One tree per output, fitted concurrently; gains are accumulated
    // per output and merged in output order below.
    std::vector<Tree> round_trees(num_outputs);
    std::vector<std::vector<uint16_t>> round_bins(num_outputs);
    ParallelFor(num_outputs, tree_threads, [&](size_t out) {
      std::fill(out_gains[out].begin(), out_gains[out].end(), 0.0);
      if (hist) {
        HistBuilder builder(*ft, ghs[out], params_, cols[out],
                            &round_trees[out], &out_gains[out]);
        builder.node_bins = &round_bins[out];
        builder.Run(sample);
      } else {
        round_trees[out] = BuildTreeExact(*x, rows, ghs[out], sample,
                                          cols[out], &out_gains[out]);
      }
    });
    for (size_t out = 0; out < num_outputs; ++out) {
      for (size_t f = 0; f < d; ++f) feature_gain_[f] += out_gains[out][f];
    }

    // Update logits with shrinkage.
    for (size_t out = 0; out < num_outputs; ++out) {
      if (hist) {
        UpdateLogitsWithTreeBinned(round_trees[out].data(),
                                   round_bins[out].data(), *ft, rows,
                                   params_.learning_rate, out, &logits,
                                   params_.num_threads);
      } else {
        UpdateLogitsWithTree(round_trees[out].data(), *x, rows,
                             params_.learning_rate, out, &logits,
                             params_.num_threads);
      }
    }
    for (const Tree& tree : round_trees) AppendTree(tree);
    ++num_rounds_;
  }
}

void GradientBoostingClassifier::AppendTree(const Tree& tree) {
  nodes_.insert(nodes_.end(), tree.begin(), tree.end());
  tree_offsets_.push_back(nodes_.size());
}

GradientBoostingClassifier::Tree GradientBoostingClassifier::BuildTreeExact(
    const Matrix& x, const std::vector<size_t>& src,
    const std::vector<double>& gh, const std::vector<size_t>& rows,
    const std::vector<size_t>& cols, std::vector<double>* gains) {
  Tree tree;
  std::vector<size_t> mutable_rows = rows;
  BuildTreeNode(x, src, gh, &mutable_rows, cols, 0, &tree, gains);
  return tree;
}

int32_t GradientBoostingClassifier::BuildTreeNode(
    const Matrix& x, const std::vector<size_t>& src,
    const std::vector<double>& gh, std::vector<size_t>* rows,
    const std::vector<size_t>& cols, size_t depth, Tree* tree,
    std::vector<double>* gains) {
  double g_sum = 0.0, h_sum = 0.0;
  for (size_t r : *rows) {
    g_sum += gh[2 * r];
    h_sum += gh[2 * r + 1];
  }

  auto make_leaf = [&]() {
    TreeNode leaf;
    leaf.weight = -g_sum / (h_sum + params_.lambda);
    tree->push_back(leaf);
    return static_cast<int32_t>(tree->size() - 1);
  };

  if (depth >= params_.max_depth || rows->size() < 2) return make_leaf();

  const double parent_score = g_sum * g_sum / (h_sum + params_.lambda);
  double best_gain = params_.gamma + 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<std::pair<double, size_t>> vals(rows->size());
  for (size_t f : cols) {
    for (size_t i = 0; i < rows->size(); ++i) {
      vals[i] = {x[src[(*rows)[i]]][f], (*rows)[i]};
    }
    std::sort(vals.begin(), vals.end());
    double gl = 0.0, hl = 0.0;
    for (size_t i = 0; i + 1 < vals.size(); ++i) {
      gl += gh[2 * vals[i].second];
      hl += gh[2 * vals[i].second + 1];
      if (vals[i].first == vals[i + 1].first) continue;
      const double gr = g_sum - gl, hr = h_sum - hl;
      if (hl < params_.min_child_weight || hr < params_.min_child_weight) {
        continue;
      }
      const double gain = 0.5 * (gl * gl / (hl + params_.lambda) +
                                 gr * gr / (hr + params_.lambda) -
                                 parent_score);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
      }
    }
  }

  if (best_feature < 0) return make_leaf();
  (*gains)[static_cast<size_t>(best_feature)] += best_gain;

  std::vector<size_t> left_rows, right_rows;
  for (size_t r : *rows) {
    (x[src[r]][static_cast<size_t>(best_feature)] <= best_threshold
         ? left_rows
         : right_rows)
        .push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();

  TreeNode internal;
  internal.feature = best_feature;
  internal.threshold = best_threshold;
  tree->push_back(internal);
  const int32_t id = static_cast<int32_t>(tree->size() - 1);
  rows->clear();
  rows->shrink_to_fit();
  const int32_t left = BuildTreeNode(x, src, gh, &left_rows, cols,
                                     depth + 1, tree, gains);
  const int32_t right = BuildTreeNode(x, src, gh, &right_rows, cols,
                                      depth + 1, tree, gains);
  (*tree)[id].left = left;
  (*tree)[id].right = right;
  return id;
}

void GradientBoostingClassifier::UpdateLogitsWithTree(
    const TreeNode* nodes, const Matrix& x, const std::vector<size_t>& src,
    double lr, size_t out, Matrix* logits, size_t num_threads) {
  // Plain per-row descent. A four-row lockstep variant was benchmarked and
  // lost above ~4k rows (the descent is bound by the row-data loads, which
  // out-of-order execution already overlaps across loop iterations), so the
  // simple shape — which is also trivially bit-identical to any reordering —
  // is the one that ships.
  ParallelFor(
      src.size(), num_threads,
      [&](size_t i) {
        const std::vector<double>& xr = x[src[i]];
        int32_t cur = 0;
        while (nodes[cur].feature >= 0) {
          const TreeNode& nd = nodes[cur];
          cur = xr[static_cast<size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                    : nd.right;
        }
        (*logits)[i][out] += lr * nodes[cur].weight;
      },
      /*grain=*/512);
}

void GradientBoostingClassifier::UpdateLogitsWithTreeBinned(
    const TreeNode* nodes, const uint16_t* node_bins, const FeatureTable& ft,
    const std::vector<size_t>& rows_global, double lr, size_t out,
    Matrix* logits, size_t num_threads) {
  // The bin comparison routes every row exactly as the threshold would
  // (bin(f, r) <= b  <=>  value <= threshold(f, b) by the FeatureTable
  // binning contract), so this update and UpdateLogitsWithTree on the
  // materialised features agree bit for bit.
  ParallelFor(
      rows_global.size(), num_threads,
      [&](size_t i) {
        const size_t r = rows_global[i];
        int32_t cur = 0;
        while (nodes[cur].feature >= 0) {
          const TreeNode& nd = nodes[cur];
          cur = ft.bin(static_cast<size_t>(nd.feature), r) <=
                        static_cast<uint8_t>(node_bins[cur])
                    ? nd.left
                    : nd.right;
        }
        (*logits)[i][out] += lr * nodes[cur].weight;
      },
      /*grain=*/512);
}

double GradientBoostingClassifier::PredictTreeAt(const TreeNode* nodes,
                                                 const std::vector<double>& x) {
  int32_t cur = 0;
  while (nodes[cur].feature >= 0) {
    const TreeNode& node = nodes[cur];
    cur = x[static_cast<size_t>(node.feature)] <= node.threshold ? node.left
                                                                 : node.right;
  }
  return nodes[cur].weight;
}

std::vector<double> GradientBoostingClassifier::PredictProba(
    const std::vector<double>& x) const {
  const size_t k = encoder_.num_classes();
  const bool binary = k == 2;
  std::vector<double> logits(base_score_);
  for (size_t rd = 0; rd < num_rounds_; ++rd) {
    for (size_t out = 0; out < trees_per_round_; ++out) {
      logits[out] += params_.learning_rate * PredictTreeAt(tree_at(rd, out), x);
    }
  }
  if (binary) {
    const double p1 = Sigmoid(logits[0]);
    return {1.0 - p1, p1};
  }
  return Softmax(logits);
}

std::unique_ptr<Classifier> GradientBoostingClassifier::Clone() const {
  return std::make_unique<GradientBoostingClassifier>(params_);
}

std::string GradientBoostingClassifier::Name() const {
  return "XGBoost(eta=" + std::to_string(params_.learning_rate).substr(0, 4) +
         ",rounds=" + std::to_string(params_.num_rounds) +
         ",depth=" + std::to_string(params_.max_depth) + ")";
}

std::vector<size_t> GradientBoostingClassifier::TopFeatures(size_t k) const {
  std::vector<size_t> idx(feature_gain_.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return feature_gain_[a] > feature_gain_[b];
  });
  idx.resize(std::min(k, idx.size()));
  return idx;
}

void GradientBoostingClassifier::SaveBinary(BinaryWriter* w) const {
  w->WriteDouble(params_.learning_rate);
  w->WriteSize(params_.num_rounds);
  w->WriteSize(params_.max_depth);
  w->WriteDouble(params_.lambda);
  w->WriteDouble(params_.gamma);
  w->WriteDouble(params_.min_child_weight);
  w->WriteDouble(params_.subsample);
  w->WriteDouble(params_.colsample);
  w->WriteU64(params_.seed);
  w->WriteU8(static_cast<uint8_t>(params_.split));
  w->WriteSize(params_.max_bins);
  SaveEncoder(w);
  w->WriteSize(num_features_);
  w->WriteDoubleVec(base_score_);
  w->WriteDoubleVec(feature_gain_);

  if (w->format_version() == 2) {
    // Legacy v2 body: nested round/tree/node records in the old field
    // order — kept so migration fixtures can be produced and the v2
    // reader exercised.
    w->WriteSize(num_rounds_);
    for (size_t rd = 0; rd < num_rounds_; ++rd) {
      w->WriteSize(trees_per_round_);
      for (size_t t = 0; t < trees_per_round_; ++t) {
        const size_t idx = rd * trees_per_round_ + t;
        const TreeNode* tree = node_data() + tree_offsets_[idx];
        const size_t count =
            static_cast<size_t>(tree_offsets_[idx + 1] - tree_offsets_[idx]);
        w->WriteSize(count);
        for (size_t i = 0; i < count; ++i) {
          w->WriteI32(tree[i].feature);
          w->WriteDouble(tree[i].threshold);
          w->WriteDouble(tree[i].weight);
          w->WriteI32(tree[i].left);
          w->WriteI32(tree[i].right);
        }
      }
    }
    return;
  }

  // v3 body: tree index (per-tree node counts) followed by one flat,
  // 8-byte-aligned POD node array in exactly the little-endian layout of
  // the in-memory structs, so a reader on a little-endian host can view
  // the mmap'd bytes in place.
  w->WriteSize(num_rounds_);
  w->WriteSize(trees_per_round_);
  w->WriteSize(node_count());
  for (size_t idx = 0; idx < num_rounds_ * trees_per_round_; ++idx) {
    w->WriteU64(tree_offsets_[idx + 1] - tree_offsets_[idx]);
  }
  w->AlignTo(8);
  if (HostIsLittleEndian()) {
    w->WriteBytes(node_data(), node_count() * sizeof(TreeNode));
  } else {
    const TreeNode* nodes = node_data();
    for (size_t i = 0; i < node_count(); ++i) {
      w->WriteDouble(nodes[i].threshold);
      w->WriteDouble(nodes[i].weight);
      w->WriteI32(nodes[i].feature);
      w->WriteI32(nodes[i].left);
      w->WriteI32(nodes[i].right);
      w->WriteI32(0);  // pad
    }
  }
}

void GradientBoostingClassifier::ValidateTrees() const {
  // Same well-formedness rules as DecisionTree::ValidateNodes, applied
  // per tree inside the flat storage: internal nodes split on a stored
  // feature and point strictly forward within their tree (rules out -1
  // children, cycles and OOB feature reads); leaves have no children.
  const TreeNode* base = node_data();
  const size_t num_trees = num_rounds_ * trees_per_round_;
  for (size_t idx = 0; idx < num_trees; ++idx) {
    const TreeNode* tree = base + tree_offsets_[idx];
    const size_t count =
        static_cast<size_t>(tree_offsets_[idx + 1] - tree_offsets_[idx]);
    if (count == 0) {
      throw SerializationError("GradientBoosting: empty tree");
    }
    for (size_t i = 0; i < count; ++i) {
      const TreeNode& node = tree[i];
      if (node.feature >= 0) {
        if (static_cast<size_t>(node.feature) >= num_features_) {
          throw SerializationError(
              "GradientBoosting: split feature out of range");
        }
        const auto forward = [count, i](int32_t child) {
          return child > static_cast<int32_t>(i) &&
                 static_cast<size_t>(child) < count;
        };
        if (!forward(node.left) || !forward(node.right)) {
          throw SerializationError(
              "GradientBoosting: internal node with invalid child index");
        }
      } else if (node.feature != -1 || node.left != -1 || node.right != -1) {
        throw SerializationError("GradientBoosting: malformed leaf node");
      }
    }
  }
}

void GradientBoostingClassifier::LoadBinary(BinaryReader* r) {
  params_.learning_rate = r->ReadDouble();
  params_.num_rounds = r->ReadSize();
  params_.max_depth = r->ReadSize();
  params_.lambda = r->ReadDouble();
  params_.gamma = r->ReadDouble();
  params_.min_child_weight = r->ReadDouble();
  params_.subsample = r->ReadDouble();
  params_.colsample = r->ReadDouble();
  params_.seed = r->ReadU64();
  const uint8_t split = r->ReadU8();
  if (split > static_cast<uint8_t>(SplitMode::kExact)) {
    throw SerializationError("GradientBoosting: out-of-range split mode");
  }
  params_.split = static_cast<SplitMode>(split);
  params_.max_bins = r->ReadSize();
  LoadEncoder(r);
  num_features_ = r->ReadSize();
  base_score_ = r->ReadDoubleVec();
  feature_gain_ = r->ReadDoubleVec();
  // PredictProba sizes its logits from base_score_ and indexes them with
  // the per-round tree index, so the cross-array invariants must hold
  // before any prediction runs (a crafted file passing the CRC must still
  // fail loudly, per the model_io contract).
  const size_t k = encoder_.num_classes();
  if (k > 0 && base_score_.size() != (k == 2 ? 1 : k)) {
    throw SerializationError(
        "GradientBoosting: base_score size " +
        std::to_string(base_score_.size()) + " inconsistent with " +
        std::to_string(k) + " classes");
  }
  ResetStorage();

  if (r->format_version() == 2) {
    // v2 body: nested round/tree/node records, converted into the flat
    // storage on load.
    const size_t rounds = r->ReadSize();
    for (size_t rd = 0; rd < rounds; ++rd) {
      const size_t per_round = r->ReadSize();
      if (per_round != base_score_.size()) {
        throw SerializationError(
            "GradientBoosting: round with " + std::to_string(per_round) +
            " trees, expected " + std::to_string(base_score_.size()));
      }
      for (size_t t = 0; t < per_round; ++t) {
        const size_t count = r->ReadSize();
        Tree tree;
        tree.reserve(count);
        for (size_t n = 0; n < count; ++n) {
          TreeNode node;
          node.feature = r->ReadI32();
          node.threshold = r->ReadDouble();
          node.weight = r->ReadDouble();
          node.left = r->ReadI32();
          node.right = r->ReadI32();
          tree.push_back(node);
        }
        AppendTree(tree);
      }
    }
    num_rounds_ = rounds;
    trees_per_round_ = base_score_.size();
    ValidateTrees();
    return;
  }

  // v3 body: tree index + flat aligned node array.
  num_rounds_ = r->ReadSize();
  trees_per_round_ = r->ReadSize();
  const size_t total = r->ReadSize();
  if (trees_per_round_ != base_score_.size()) {
    throw SerializationError(
        "GradientBoosting: round with " + std::to_string(trees_per_round_) +
        " trees, expected " + std::to_string(base_score_.size()));
  }
  if (num_rounds_ > 0 &&
      trees_per_round_ > r->remaining() / (8 * num_rounds_)) {
    throw SerializationError("GradientBoosting: tree index exceeds section");
  }
  const size_t num_trees = num_rounds_ * trees_per_round_;
  tree_offsets_.assign(1, 0);
  tree_offsets_.reserve(num_trees + 1);
  for (size_t idx = 0; idx < num_trees; ++idx) {
    tree_offsets_.push_back(tree_offsets_.back() + r->ReadU64());
  }
  if (tree_offsets_.back() != total) {
    throw SerializationError(
        "GradientBoosting: tree index inconsistent with node count");
  }
  r->AlignTo(8);
  if (total > r->remaining() / sizeof(TreeNode)) {
    throw SerializationError("GradientBoosting: node array exceeds section");
  }
  const uint8_t* node_bytes = r->ViewBytes(total * sizeof(TreeNode));

  if (r->zero_copy() && HostIsLittleEndian() &&
      reinterpret_cast<uintptr_t>(node_bytes) % alignof(TreeNode) == 0) {
    nodes_view_ = reinterpret_cast<const TreeNode*>(node_bytes);
    nodes_view_count_ = total;
  } else {
    nodes_.resize(total);
    if (HostIsLittleEndian()) {
      std::memcpy(nodes_.data(), node_bytes, total * sizeof(TreeNode));
    } else {
      BinaryReader nr(node_bytes, total * sizeof(TreeNode));
      for (size_t i = 0; i < total; ++i) {
        nodes_[i].threshold = nr.ReadDouble();
        nodes_[i].weight = nr.ReadDouble();
        nodes_[i].feature = nr.ReadI32();
        nodes_[i].left = nr.ReadI32();
        nodes_[i].right = nr.ReadI32();
        nodes_[i].pad = nr.ReadI32();
      }
    }
  }
  ValidateTrees();
}

}  // namespace mvg
