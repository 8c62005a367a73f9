// End-to-end fit/predict benchmark of the MVG pipeline.
//
//   e2e_bench --workload <registry|long_smooth|bulk_paged> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir>
//
// --trace 0 times the user-visible pipeline (fit, save + mapped load +
// first predict, closed-loop per-series predict, batch predict) and prints
// the end-to-end metrics. --trace 1 is a separate run that times each
// layer from outside, by calling the layer's public functions on the same
// inputs, and prints the per-layer metrics. Every answer is checked; the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}, and the exit code is non-zero on any failed operation.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/feature_extractor.h"
#include "core/mvg_classifier.h"
#include "graph/graph_stats.h"
#include "motif/motif_counts.h"
#include "obs/obs.h"
#include "serve/model_io.h"
#include "serve/serving.h"
#include "ts/paged_ucr_reader.h"
#include "ts/ts_kernels.h"
#include "ts/ucr_io.h"
#include "util/simd.h"
#include "vg/visibility_graph.h"
#include "vg/vg_workspace.h"
#include "workloads.h"

// ---------------------------------------------------------------------------
// Counting global operator new (as bench/perf_suite.cc does): the exact
// allocation count per served prediction. Counting is switched on only
// inside the measured window, so the timed runs pay one relaxed load.
// ---------------------------------------------------------------------------

static std::atomic<bool> g_count_allocs{false};
static std::atomic<uint64_t> g_alloc_count{0};

static void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2e {
namespace {

using mvg::Dataset;
using mvg::Graph;
using mvg::MvgClassifier;
using mvg::Series;
using mvg::ServingSession;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string binary;  // argv[0]
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

// ---------------------------------------------------------------------------
// Spans: name, start, end and the span that caused it, kept in memory and
// written out when the run ends. A null Tracer times without recording.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  double start_us;
  double dur_us;
};

class Tracer {
 public:
  void Record(const char* name, uint64_t id, uint64_t parent,
              Clock::time_point start, Clock::time_point end) {
    spans_.push_back({name, id, parent, Micros(start - origin_),
                      Micros(end - start)});
  }
  uint64_t NextId() { return ++last_id_; }
  size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (one complete event per span).
  void Write(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
         << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << s.id
         << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    if (!os) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  static double Micros(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }
  Clock::time_point origin_ = Clock::now();
  uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// Times one call into a layer; records a span when tracing.
class SpanTimer {
 public:
  SpanTimer(Tracer* tracer, const char* name, uint64_t parent = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        id_(tracer ? tracer->NextId() : 0),
        start_(Clock::now()) {}
  uint64_t id() const { return id_; }
  /// Ends the span; returns its duration in seconds.
  double Stop() {
    const Clock::time_point end = Clock::now();
    if (tracer_) tracer_->Record(name_, id_, parent_, start_, end);
    return std::chrono::duration<double>(end - start_).count();
  }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Operations attempted and failed. A failure is an exception or a wrong or
// disagreeing answer.
// ---------------------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Counts one operation; `what`/`where`/`index` only name a failure.
  void Check(bool ok, const char* what, const std::string& where = "",
             size_t index = 0) {
    ++attempted;
    if (ok) return;
    if (failed < 20) {
      std::fprintf(stderr, "e2e_bench: FAILED %s [%s #%zu]\n", what,
                   where.c_str(), index);
    }
    ++failed;
  }
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// "[first quartile, third quartile]" of a metric's samples.
std::string QuartilesJson(const std::vector<double>& v) {
  return "[" + Num(Quantile(v, 0.25)) + ", " + Num(Quantile(v, 0.75)) + "]";
}

size_t Threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

MvgClassifier::Config FitConfig() {
  MvgClassifier::Config config;  // XGBoost, GridPreset::kSmall, 3-fold CV
  config.num_threads = Threads();
  return config;
}

// ---------------------------------------------------------------------------
// End-to-end pass
// ---------------------------------------------------------------------------

// The end-to-end pass runs in rounds: each round does two fits, three
// set-ups, one batch and one chunk of the closed loop, so every metric's
// samples spread over the whole run instead of one slice of it, and a slow
// spell of a shared host weighs on all metrics alike.
constexpr size_t kMinRounds = 3;
constexpr size_t kMaxRounds = 64;
constexpr size_t kFitsPerRound = 2;
constexpr size_t kSetupsPerRound = 3;
// p99 is reported with at least ten samples beyond it.
constexpr size_t kMinLatencySamples = 1000;
constexpr size_t kChunk = (kMinLatencySamples + kMinRounds - 1) / kMinRounds;

struct EndToEnd {
  // End-to-end metrics.
  double setup_s = 0, fit_s = 0, p50_ms = 0, p99_ms = 0, batch_sps = 0;
  double accuracy = 0;
  // Sample counts behind each median / percentile.
  size_t fit_reps = 0, setup_reps = 0, latency_samples = 0, batch_reps = 0;
  std::string quartiles;  // JSON: each metric's within-run spread
  // Layer numbers that fall out of the same calls.
  double save_ms = 0, load_ms = 0, fit_fe_s = 0, fit_train_s = 0;
  double mean_latency_s = 0;
};

/// What an end-to-end pass leaves behind for the traced layer replay.
struct Served {
  std::vector<MvgClassifier> models;
  std::vector<ServingSession> sessions;
  std::vector<std::vector<int>> reference;  // in-memory Predict labels
};

MvgClassifier FitJob(const Job& job) {
  MvgClassifier clf(FitConfig());
  if (job.train_file.empty()) {
    clf.Fit(job.train);
  } else {
    mvg::PagedUcrReader::Options ro;
    ro.page_rows = kPageRows;
    mvg::PagedUcrReader reader(job.train_file, ro);
    clf.FitPaged(&reader);
  }
  return clf;
}

/// In-memory MvgClassifier::Predict over a test split, fanned out over
/// plain threads (untimed; the reference the served labels must match).
std::vector<int> ReferenceLabels(const MvgClassifier& clf, const Dataset& ds) {
  std::vector<int> out(ds.size());
  const size_t n = Threads();
  // std::async futures wait for their task when destroyed, so every task
  // has finished before `out` goes away, on the exception path too.
  std::vector<std::future<void>> parts;
  for (size_t t = 0; t < n; ++t) {
    parts.push_back(std::async(std::launch::async, [&, t] {
      mvg::VgWorkspace ws;
      for (size_t i = t; i < ds.size(); i += n) {
        out[i] = clf.Predict(ds.series(i), &ws);
      }
    }));
  }
  for (std::future<void>& part : parts) part.get();
  return out;
}

EndToEnd RunEndToEnd(const Workload& w, const Options& opt, double budget_s,
                     Tracer* tracer, Tally* tally, Served* served) {
  const size_t threads = Threads();
  const size_t jobs = w.jobs.size();

  // One fit of every job; the summed wall time is one fit_s sample.
  std::vector<double> fit_s, fe_s, train_s;
  auto fit_rep = [&] {
    std::vector<MvgClassifier> models;
    double sum = 0, fe = 0, train = 0;
    for (const Job& job : w.jobs) {
      SpanTimer span(tracer, "fit");
      models.push_back(FitJob(job));
      sum += span.Stop();
      fe += models.back().feature_extraction_seconds();
      train += models.back().training_seconds();
      tally->Check(models.back().fitted(), "fit", job.name);
    }
    served->models = std::move(models);
    fit_s.push_back(sum);
    fe_s.push_back(fe);
    train_s.push_back(train);
  };

  // Set-up before the first answer, summed over the jobs: save, mapped
  // load, first cold predict. Writes its own files and drops its sessions,
  // so the serving sessions below stay mapped and warm.
  std::vector<double> setup_s, save_ms, load_ms;
  auto setup_rep = [&](const char* stem, std::vector<ServingSession>* keep) {
    double setup = 0, save = 0, load = 0;
    for (size_t j = 0; j < jobs; ++j) {
      const Job& job = w.jobs[j];
      const std::string path = opt.out_dir + "/" + stem + job.name + ".mvg";
      SpanTimer save_span(tracer, "save");
      mvg::SaveModel(served->models[j], path);
      const double saved = save_span.Stop();
      SpanTimer load_span(tracer, "load_mapped");
      ServingSession session = ServingSession::FromFileMapped(path);
      const double loaded = load_span.Stop();
      SpanTimer first_span(tracer, "first_predict");
      const int label = session.Predict(job.test.series(0));
      setup += saved + loaded + first_span.Stop();
      save += saved;
      load += loaded;
      tally->Check(label == served->reference[j][0], "first predict", job.name);
      if (keep) keep->push_back(std::move(session));
    }
    setup_s.push_back(setup);
    save_ms.push_back(save * 1e3);
    load_ms.push_back(load * 1e3);
  };

  // PredictBatch over every test split with all threads (the first `limit`
  // series of each split when warming up).
  std::vector<double> batch_sps;
  auto batch_rep = [&](size_t limit) {
    double wall = 0;
    size_t count = 0;
    for (size_t j = 0; j < jobs; ++j) {
      const Dataset& test = w.jobs[j].test;
      const size_t n = std::min(limit, test.size());
      SpanTimer span(tracer, "predict_batch");
      const std::vector<int> labels = served->sessions[j].PredictBatch(
          test.all_series().data(), n, threads);
      wall += span.Stop();
      count += n;
      for (size_t i = 0; i < n; ++i) {
        tally->Check(labels[i] == served->reference[j][i], "batch predict",
                     w.jobs[j].name, i);
      }
    }
    batch_sps.push_back(static_cast<double>(count) / wall);
  };

  // Closed loop, one client: each Predict starts when the previous one has
  // returned. Series are visited round-robin over the jobs, so any stretch
  // of the loop mixes them evenly.
  size_t longest = 0;
  for (const Job& job : w.jobs) longest = std::max(longest, job.test.size());
  std::vector<std::pair<size_t, size_t>> order;  // (job, series)
  for (size_t i = 0; i < longest; ++i) {
    for (size_t j = 0; j < jobs; ++j) {
      if (i < w.jobs[j].test.size()) order.emplace_back(j, i);
    }
  }
  std::vector<double> latency_ms;
  auto closed_chunk = [&] {
    for (size_t k = 0; k < kChunk; ++k) {
      const auto [j, i] = order[latency_ms.size() % order.size()];
      SpanTimer span(tracer, "predict");
      const int label = served->sessions[j].Predict(w.jobs[j].test.series(i));
      latency_ms.push_back(span.Stop() * 1e3);
      tally->Check(label == served->reference[j][i], "served predict",
                   w.jobs[j].name, i);
    }
  };

  // Warm-up, not measured: the first fit (pool start-up, first-touch page
  // faults), the in-memory reference labels, the serving sessions and a
  // short batch that grows every worker's workspace.
  fit_rep();
  served->reference.clear();
  EndToEnd r;
  size_t correct = 0, total = 0;
  for (size_t j = 0; j < jobs; ++j) {
    served->reference.push_back(
        ReferenceLabels(served->models[j], w.jobs[j].test));
    for (size_t i = 0; i < w.jobs[j].test.size(); ++i) {
      correct += served->reference[j][i] == w.jobs[j].test.label(i);
      ++total;
    }
  }
  r.accuracy = static_cast<double>(correct) / static_cast<double>(total);
  served->sessions.clear();  // unmap before the serving files are rewritten
  setup_rep("serve_", &served->sessions);
  batch_rep(4 * threads);
  fit_s.clear();
  fe_s.clear();
  train_s.clear();
  setup_s.clear();
  save_ms.clear();
  load_ms.clear();
  batch_sps.clear();

  const Clock::time_point start = Clock::now();
  for (size_t round = 0; round < kMaxRounds; ++round) {
    if (round >= kMinRounds && latency_ms.size() >= kMinLatencySamples &&
        SecondsSince(start) >= budget_s) {
      break;
    }
    for (size_t k = 0; k < kFitsPerRound; ++k) fit_rep();
    for (size_t k = 0; k < kSetupsPerRound; ++k) setup_rep("setup_", nullptr);
    batch_rep(SIZE_MAX);
    closed_chunk();
  }

  r.fit_s = Median(fit_s);
  r.fit_fe_s = Median(fe_s);
  r.fit_train_s = Median(train_s);
  r.setup_s = Median(setup_s);
  r.save_ms = Median(save_ms);
  r.load_ms = Median(load_ms);
  r.p50_ms = Quantile(latency_ms, 0.50);
  r.p99_ms = Quantile(latency_ms, 0.99);
  double sum_ms = 0;
  for (double v : latency_ms) sum_ms += v;
  r.mean_latency_s = sum_ms / static_cast<double>(latency_ms.size()) / 1e3;
  r.batch_sps = Median(batch_sps);
  r.fit_reps = fit_s.size();
  r.setup_reps = setup_s.size();
  r.latency_samples = latency_ms.size();
  r.batch_reps = batch_sps.size();
  r.quartiles = "{\"setup_s\": " + QuartilesJson(setup_s) +
                ", \"fit_s\": " + QuartilesJson(fit_s) +
                ", \"predict_ms\": " + QuartilesJson(latency_ms) +
                ", \"batch_series_per_s\": " + QuartilesJson(batch_sps) + "}";
  return r;
}

// ---------------------------------------------------------------------------
// Stage replay: the stages MvgFeatureExtractor::Extract runs, called
// through the same public entry points on the same series, each timed.
// ---------------------------------------------------------------------------

struct StageTimes {
  double front = 0, vg_build = 0, hvg_build = 0, vg_count = 0, hvg_count = 0,
         stats = 0;
  double Sum() const {
    return front + vg_build + hvg_build + vg_count + hvg_count + stats;
  }
};

/// Exact work counts of the replayed graphs.
struct WorkCounts {
  uint64_t vg_edges = 0, hvg_edges = 0, vg_deg_sq = 0;
  bool operator==(const WorkCounts& o) const {
    return vg_edges == o.vg_edges && hvg_edges == o.hvg_edges &&
           vg_deg_sq == o.vg_deg_sq;
  }
};

/// Appends g's features in MvgFeatureExtractor::GraphFeatures order.
void ReplayGraphFeatures(const mvg::MvgFeatureExtractor& fe, const Graph& g,
                         Tracer* tracer, uint64_t parent,
                         const char* count_span, double* count_s,
                         double* stats_s, std::vector<double>* out) {
  SpanTimer count(tracer, count_span, parent);
  const mvg::MotifCounts counts = mvg::CountMotifs(g);
  const auto mpd = mvg::MotifProbabilityDistribution(counts);
  *count_s += count.Stop();
  out->insert(out->end(), mpd.begin(), mpd.end());
  if (fe.config().feature_mode == mvg::FeatureMode::kMpdsOnly) return;
  SpanTimer stats(tracer, "graph_stats", parent);
  const double density = mvg::Density(g);
  const mvg::DegreeStats ds = mvg::ComputeDegreeStats(g);
  const size_t core = mvg::MaxCore(g);
  const double assortativity = mvg::DegreeAssortativity(g);
  *stats_s += stats.Stop();
  out->insert(out->end(), {density, ds.min, ds.mean, ds.max,
                           static_cast<double>(core), assortativity});
}

std::vector<double> ReplayExtract(const mvg::MvgFeatureExtractor& fe,
                                  const Series& s, mvg::VgWorkspace* ws,
                                  Tracer* tracer, uint64_t parent,
                                  StageTimes* t, WorkCounts* counts) {
  namespace tk = mvg::ts_kernels;
  const mvg::MvgConfig& cfg = fe.config();
  tk::MultiscaleScratch& ts = ws->ts;
  SpanTimer front(tracer, "front_end", parent);
  // Extract's sanitizer copies a clean series unchanged: every sample
  // finite and no magnitude above its 1e150 rescaling threshold.
  const tk::FiniteScan scan = tk::ScanFinite(s.data(), s.size());
  if (scan.finite != s.size() ||
      std::max(std::abs(scan.lo), std::abs(scan.hi)) > 1e150) {
    throw std::runtime_error("stage replay covers clean series only");
  }
  ts.base.assign(s.begin(), s.end());
  if (cfg.detrend) tk::DetrendInPlace(ts.base.data(), ts.base.size());
  tk::BuildScalesInto(cfg.scale_mode, cfg.tau, &ts);
  t->front += front.Stop();

  std::vector<double> features;
  features.reserve(fe.LayoutForLength(s.size()).feature_width);
  for (const Series* scale : ts.view) {
    if (cfg.graph_mode != mvg::GraphMode::kHvgOnly) {
      SpanTimer build(tracer, "vg_build", parent);
      const Graph& vg = mvg::BuildVisibilityGraph(*scale, ws, cfg.vg_algorithm);
      t->vg_build += build.Stop();
      counts->vg_edges += vg.num_edges();
      for (size_t v = 0; v < vg.num_vertices(); ++v) {
        counts->vg_deg_sq += static_cast<uint64_t>(vg.Degree(v)) * vg.Degree(v);
      }
      ReplayGraphFeatures(fe, vg, tracer, parent, "motif_count_vg",
                          &t->vg_count, &t->stats, &features);
    }
    if (cfg.graph_mode != mvg::GraphMode::kVgOnly) {
      SpanTimer build(tracer, "hvg_build", parent);
      const Graph& hvg = mvg::BuildHorizontalVisibilityGraph(*scale, ws);
      t->hvg_build += build.Stop();
      counts->hvg_edges += hvg.num_edges();
      ReplayGraphFeatures(fe, hvg, tracer, parent, "motif_count_hvg",
                          &t->hvg_count, &t->stats, &features);
    }
  }
  return features;
}

struct Layers {
  size_t series = 0;  // trace-set size
  StageTimes stages;  // per-series minima, summed over the trace set
  double extract_s = 0, predict_s = 0, model_s = 0;
  WorkCounts counts;
  uint64_t allocs = 0;  // over one predict pass of the trace set
  double page_read_s = 0;
  size_t pages = 0, read_ahead_spawns = 0;
};

constexpr size_t kReplayReps = 3;

double Min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// The sections SaveModel writes, with the last 16 bytes of the pipeline
/// section masked: they hold the two recorded fit wall times, which
/// legitimately differ between fits.
std::array<std::string, 3> MaskedSections(const MvgClassifier& clf) {
  std::array<std::string, 3> s;
  clf.BuildSections(mvg::kModelFormatVersion, &s[0], &s[1], &s[2]);
  if (s[0].size() < 16) throw std::runtime_error("short pipeline section");
  s[0].resize(s[0].size() - 16);
  return s;
}

Layers RunLayers(const Workload& w, const Options& opt, Served* served,
                 Tracer* tracer, Tally* tally) {
  Layers out;
  mvg::VgWorkspace ws;
  // Stage replay, kReplayReps times per series. Each timing keeps its
  // per-series minimum: the work is deterministic, so the minimum is the
  // least-disturbed reading.
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    const Job& job = w.jobs[j];
    ServingSession& session = served->sessions[j];
    const MvgClassifier& model = session.model();
    if (model.extractor().config().feature_mode == mvg::FeatureMode::kExtended ||
        model.config().model != mvg::MvgModel::kXgboost) {
      throw std::runtime_error("stage replay covers the default pipeline");
    }
    const size_t n = std::min(w.trace_per_job, job.test.size());
    for (size_t i = 0; i < n; ++i) {
      const Series& s = job.test.series(i);
      std::vector<StageTimes> stages(kReplayReps);
      std::vector<double> extract(kReplayReps), predict(kReplayReps),
          model_predict(kReplayReps);
      WorkCounts first;
      for (size_t r = 0; r < kReplayReps; ++r) {
        SpanTimer x(tracer, "extract");
        std::vector<double> features = model.extractor().Extract(s, &ws);
        extract[r] = x.Stop();
        SpanTimer replay(tracer, "extract_replay");
        WorkCounts counts;
        const std::vector<double> replayed = ReplayExtract(
            model.extractor(), s, &ws, tracer, replay.id(), &stages[r],
            &counts);
        replay.Stop();
        tally->Check(replayed.size() == features.size() &&
                         std::memcmp(replayed.data(), features.data(),
                                     features.size() * sizeof(double)) == 0,
                     "replayed features bit-identical to Extract", job.name, i);
        if (r == 0) first = counts;
        tally->Check(counts == first, "work counts repeat", job.name, i);

        SpanTimer p(tracer, "predict");
        const int label = session.Predict(s);
        predict[r] = p.Stop();
        features.resize(model.feature_width(), 0.0);
        SpanTimer m(tracer, "model_predict");
        const int model_label = model.model().Predict(features);
        model_predict[r] = m.Stop();
        tally->Check(label == served->reference[j][i] &&
                         model_label == served->reference[j][i],
                     "traced predict", job.name, i);
      }
      for (double StageTimes::*stage :
           {&StageTimes::front, &StageTimes::vg_build, &StageTimes::hvg_build,
            &StageTimes::vg_count, &StageTimes::hvg_count,
            &StageTimes::stats}) {
        double best = stages[0].*stage;
        for (const StageTimes& t : stages) best = std::min(best, t.*stage);
        out.stages.*stage += best;
      }
      out.extract_s += Min(extract);
      out.predict_s += Min(predict);
      out.model_s += Min(model_predict);
      out.counts.vg_edges += first.vg_edges;
      out.counts.hvg_edges += first.hvg_edges;
      out.counts.vg_deg_sq += first.vg_deg_sq;
      ++out.series;
    }
  }

  // Exact allocations per served predict: two counted passes over the
  // warm trace set must agree.
  uint64_t pass_allocs[2] = {0, 0};
  for (uint64_t& allocs : pass_allocs) {
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (size_t j = 0; j < w.jobs.size(); ++j) {
      const size_t n = std::min(w.trace_per_job, w.jobs[j].test.size());
      for (size_t i = 0; i < n; ++i) {
        served->sessions[j].Predict(w.jobs[j].test.series(i));
      }
    }
    g_count_allocs.store(false);
    allocs = g_alloc_count.load();
  }
  tally->Check(pass_allocs[0] == pass_allocs[1], "allocation count repeats");
  out.allocs = pass_allocs[0];

  // ts paging: one NextPage pass over each training file. FitPaged models
  // must match an in-RAM Fit on the same rows.
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    const Job& job = w.jobs[j];
    std::string path = job.train_file;
    if (path.empty()) {
      path = opt.out_dir + "/" + job.name + "_TRAIN";
      mvg::WriteUcrFile(job.train, path);
    }
    mvg::PagedUcrReader::Options ro;
    ro.page_rows = kPageRows;
    mvg::PagedUcrReader reader(path, ro);
    mvg::SeriesPage page;
    size_t rows = 0;
    SpanTimer span(tracer, "page_read");
    while (reader.NextPage(&page)) {
      ++out.pages;
      rows += page.size();
    }
    out.page_read_s += span.Stop();
    out.read_ahead_spawns += reader.read_ahead_spawns();
    const Dataset all = mvg::ReadUcrFile(path);
    tally->Check(rows == all.size(), "paged rows match the file", job.name);
    if (!job.train_file.empty()) {
      MvgClassifier in_ram(FitConfig());
      in_ram.Fit(all);
      tally->Check(MaskedSections(in_ram) == MaskedSections(served->models[j]),
                   "FitPaged model equals in-RAM Fit", job.name);
    }
  }
  return out;
}

/// FNV-1a hash of this executable, so recorded counts are only ever
/// compared with counts of the same build.
std::string BinaryHash(const std::string& binary) {
  std::ifstream in(binary, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + binary);
  uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// Exact counts must repeat between runs of one build with the same seed:
/// the first such run records them, later runs compare.
void CheckCountsRepeat(const Options& opt, const Layers& l, Tally* tally) {
  std::ostringstream now;
  now << l.series << ' ' << l.counts.vg_edges << ' ' << l.counts.hvg_edges
      << ' ' << l.counts.vg_deg_sq << ' ' << l.allocs << ' ' << l.pages << ' '
      << l.read_ahead_spawns;
  const std::string path = opt.out_dir + "/counts-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-" + BinaryHash(opt.binary) +
                           ".txt";
  std::ifstream in(path);
  std::string before;
  if (std::getline(in, before)) {
    tally->Check(before == now.str(), "counts repeat across runs", path);
    return;
  }
  std::ofstream(path) << now.str() << '\n';
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + std::string(metrics[i].name) +
         "\": {\"value\": " + Num(metrics[i].value) + ", \"unit\": \"" +
         metrics[i].unit + "\"}";
  }
  return s + "}";
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
}

std::vector<Metric> EndToEndMetrics(const EndToEnd& e, double peak_rss) {
  return {{"setup_s", e.setup_s, "s"},
          {"fit_s", e.fit_s, "s"},
          {"predict_p50_ms", e.p50_ms, "ms"},
          {"predict_p99_ms", e.p99_ms, "ms"},
          {"batch_series_per_s", e.batch_sps, "series/s"},
          {"accuracy", e.accuracy, "fraction"},
          {"peak_rss_mb", peak_rss, "MiB"}};
}

std::string SamplesJson(const EndToEnd& e) {
  return "{\"fit_s\": " + std::to_string(e.fit_reps) +
         ", \"setup_s\": " + std::to_string(e.setup_reps) +
         ", \"predict_p50_ms\": " + std::to_string(e.latency_samples) +
         ", \"predict_p99_ms\": " + std::to_string(e.latency_samples) +
         ", \"batch_series_per_s\": " + std::to_string(e.batch_reps) + "}";
}

int Run(const Options& opt, Tally* tally) {
  const Workload w = MakeWorkload(opt.workload, opt.seed, opt.out_dir);
  size_t train_rows = 0, test_rows = 0;
  for (const Job& job : w.jobs) {
    train_rows += job.train.size();
    test_rows += job.test.size();
  }
  std::string record = "{\"workload\": \"" + opt.workload +
                       "\", \"seed\": " + std::to_string(opt.seed) +
                       ", \"seconds\": " + Num(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") +
                       ", \"nproc\": " + std::to_string(Threads()) +
                       ", \"threads\": " + std::to_string(Threads()) +
                       ", \"simd_backend\": \"" + mvg::simd::kBackendName +
                       "\", \"build_type\": \"" + E2E_BUILD_TYPE +
                       "\", \"obs_enabled\": " +
                       (mvg::obs::Enabled() ? "true" : "false") +
                       ", \"jobs\": " + std::to_string(w.jobs.size()) +
                       ", \"in_memory_train_series\": " +
                       std::to_string(train_rows) +
                       ", \"test_series\": " + std::to_string(test_rows);
  std::vector<Metric> metrics;
  Served served;
  if (!opt.trace) {
    const EndToEnd e =
        RunEndToEnd(w, opt, opt.seconds, nullptr, tally, &served);
    metrics = EndToEndMetrics(e, PeakRssMib());
    record += ", \"samples\": " + SamplesJson(e) +
              ", \"quartiles\": " + e.quartiles;
  } else {
    // Tracing overhead: the same end-to-end pass untraced, then traced.
    Tracer tracer;
    const EndToEnd plain =
        RunEndToEnd(w, opt, opt.seconds / 3, nullptr, tally, &served);
    const EndToEnd traced =
        RunEndToEnd(w, opt, opt.seconds / 3, &tracer, tally, &served);
    const Layers l = RunLayers(w, opt, &served, &tracer, tally);
    CheckCountsRepeat(opt, l, tally);
    const double n = static_cast<double>(l.series);
    const double coverage = l.stages.Sum() / l.extract_s;
    if (opt.workload == "long_smooth") {
      tally->Check(coverage >= 0.9, "replay coverage >= 0.9 on long_smooth");
    }
    metrics = {
        {"ts.front_end_ms", l.stages.front / n * 1e3, "ms"},
        {"ts.page_read_s", l.page_read_s, "s"},
        {"ts.pages", static_cast<double>(l.pages), "count"},
        {"ts.read_ahead_spawns", static_cast<double>(l.read_ahead_spawns),
         "count"},
        {"vg.vg_build_ms", l.stages.vg_build / n * 1e3, "ms"},
        {"vg.hvg_build_ms", l.stages.hvg_build / n * 1e3, "ms"},
        {"vg.vg_edges", static_cast<double>(l.counts.vg_edges), "count"},
        {"vg.hvg_edges", static_cast<double>(l.counts.hvg_edges), "count"},
        {"motif.vg_count_ms", l.stages.vg_count / n * 1e3, "ms"},
        {"motif.hvg_count_ms", l.stages.hvg_count / n * 1e3, "ms"},
        {"motif.vg_deg_sq_sum", static_cast<double>(l.counts.vg_deg_sq),
         "count"},
        {"graph.stats_ms", l.stages.stats / n * 1e3, "ms"},
        {"core.extract_ms", l.extract_s / n * 1e3, "ms"},
        {"core.extract_self_ms", (l.extract_s - l.stages.Sum()) / n * 1e3,
         "ms"},
        {"core.replay_coverage", coverage, "ratio"},
        {"core.fit_fe_s", traced.fit_fe_s, "s"},
        {"ml.fit_train_s", traced.fit_train_s, "s"},
        {"ml.predict_us", l.model_s / n * 1e6, "us"},
        {"serve.save_ms", traced.save_ms, "ms"},
        {"serve.load_ms", traced.load_ms, "ms"},
        {"serve.predict_self_us",
         (l.predict_s - l.extract_s - l.model_s) / n * 1e6, "us"},
        {"serve.allocs_per_predict", static_cast<double>(l.allocs) / n,
         "count"},
        {"util.batch_efficiency",
         traced.batch_sps * traced.mean_latency_s /
             static_cast<double>(Threads()),
         "ratio"},
    };
    const std::string trace_path = opt.out_dir + "/trace-" + opt.workload +
                                   "-seed" + std::to_string(opt.seed) +
                                   ".json";
    tracer.Write(trace_path);
    const std::vector<Metric> pe = EndToEndMetrics(plain, 0);
    const std::vector<Metric> te = EndToEndMetrics(traced, 0);
    std::string overhead = "{";
    for (size_t i = 0; i + 1 < pe.size(); ++i) {  // peak RSS is per process
      overhead += (i ? ", \"" : "\"") + std::string(pe[i].name) +
                  "\": " + Num(te[i].value - pe[i].value);
    }
    record += ", \"samples\": " + SamplesJson(traced) +
              ", \"quartiles\": " + traced.quartiles +
              ", \"untraced_samples\": " + SamplesJson(plain) +
              ", \"trace_overhead\": " + overhead + "}" +
              ", \"untraced\": " + MetricsJson(pe) +
              ", \"traced\": " + MetricsJson(te) +
              ", \"trace_series\": " + std::to_string(l.series) +
              ", \"replay_reps\": " + std::to_string(kReplayReps) +
              ", \"spans\": " + std::to_string(tracer.size()) +
              ", \"trace_file\": \"" + trace_path + "\"";
  }
  record += "}";
  for (const Metric& m : metrics) {
    tally->Check(std::isfinite(m.value), "finite metric", m.name);
  }
  std::printf("{\"run_record\": %s}\n", record.c_str());
  std::ofstream(opt.out_dir + "/run-" + opt.workload + "-seed" +
                std::to_string(opt.seed) + "-trace" +
                (opt.trace ? "1" : "0") + ".json")
      << record << '\n';
  PrintResult(*tally, metrics);
  return tally->failed == 0 ? 0 : 1;
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  opt.binary = argv[0];
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) throw std::invalid_argument("flags take one value each");
  for (const char* required : {"workload", "seed", "seconds", "trace", "out-dir"}) {
    if (!kv.count(required)) {
      throw std::invalid_argument(std::string("missing --") + required);
    }
  }
  opt.workload = kv["workload"];
  opt.seed = std::stoull(kv["seed"]);
  opt.seconds = std::stod(kv["seconds"]);
  if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (kv["trace"] != "0" && kv["trace"] != "1") {
    throw std::invalid_argument("--trace takes 0 or 1");
  }
  opt.trace = kv["trace"] == "1";
  opt.out_dir = kv["out-dir"];
  return opt;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  try {
    opt = e2e::ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir>\n%s\n",
                 e.what());
    return 2;
  }
  e2e::Tally tally;
  try {
    return e2e::Run(opt, &tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: exception: %s\n", e.what());
    tally.Check(false, "exception");
    e2e::PrintResult(tally, {});
    return 1;
  }
}
