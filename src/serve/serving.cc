#include "serve/serving.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "serve/model_io.h"
#include "serve/model_mmap.h"
#include "util/executor.h"

namespace mvg {

ServingSession::ServingSession(MvgClassifier model)
    : model_(std::move(model)) {
  if (!model_.fitted()) {
    throw std::invalid_argument("ServingSession: model not fitted");
  }
}

ServingSession ServingSession::FromFile(const std::string& path) {
  return ServingSession(LoadModel(path));
}

ServingSession ServingSession::FromFileMapped(const std::string& path) {
  auto mapping = std::make_shared<MappedFile>(path);
  ServingSession session(LoadModelView(mapping->data(), mapping->size()));
  session.mapping_ = std::move(mapping);
  return session;
}

int ServingSession::Predict(const Series& s) {
  obs::Count(obs::PipelineMetrics::Get().serve_predictions);
  if (workspaces_.empty()) workspaces_.resize(1);
  return model_.Predict(s, &workspaces_[0]);
}

std::vector<int> ServingSession::PredictBatch(const Series* series,
                                              size_t count,
                                              size_t num_threads) {
  obs::ObsSpan span(obs::PipelineMetrics::Get().serve_predict_batch_seconds);
  obs::Count(obs::PipelineMetrics::Get().serve_predictions, count);
  std::vector<int> out(count);
  const size_t workers = MaxWorkers(count, num_threads);
  // Grow-only: a workspace pool warmed by earlier batches stays warm even
  // if a small batch needs fewer executor slots. The fan-out rides the
  // persistent pool, so per-batch dispatch is a queue push, not a spawn.
  if (workspaces_.size() < workers) workspaces_.resize(workers);
  Executor::Global().ParallelForWorker(
      count, num_threads, [&](size_t worker, size_t i) {
        out[i] = model_.Predict(series[i], &workspaces_[worker]);
      });
  return out;
}

std::vector<int> ServingSession::PredictBatch(
    const std::vector<Series>& batch) {
  return PredictBatch(batch.data(), batch.size(), DefaultThreads());
}

std::vector<int> ServingSession::PredictBatch(const std::vector<Series>& batch,
                                              size_t num_threads) {
  return PredictBatch(batch.data(), batch.size(), num_threads);
}

StreamingClassifier::StreamingClassifier(const MvgClassifier* model,
                                         Options options)
    : model_(model), options_(options) {
  if (model_ == nullptr || !model_->fitted()) {
    throw std::invalid_argument("StreamingClassifier: model not fitted");
  }
  if (options_.window == 0) options_.window = model_->train_length();
  if (options_.window == 0) {
    throw std::invalid_argument("StreamingClassifier: window length 0");
  }
  if (options_.hop == 0) {
    throw std::invalid_argument("StreamingClassifier: hop must be >= 1");
  }
  if (options_.num_channels == 0) {
    throw std::invalid_argument("StreamingClassifier: need >= 1 channel");
  }
  channels_.resize(options_.num_channels);
  for (Channel& ch : channels_) {
    ch.ring.assign(options_.window, 0.0);
    ch.scratch.assign(options_.window, 0.0);
  }
}

const StreamingClassifier::Channel& StreamingClassifier::At(
    size_t channel) const {
  if (channel >= channels_.size()) {
    throw std::out_of_range("StreamingClassifier: channel " +
                            std::to_string(channel) + " out of range (" +
                            std::to_string(channels_.size()) + " channels)");
  }
  return channels_[channel];
}

StreamingClassifier::Channel& StreamingClassifier::At(size_t channel) {
  return const_cast<Channel&>(
      static_cast<const StreamingClassifier&>(*this).At(channel));
}

std::optional<int> StreamingClassifier::Push(size_t channel, double sample) {
  Channel& ch = At(channel);
  const size_t w = options_.window;
  ch.ring[ch.head] = sample;
  ch.head = (ch.head + 1) % w;
  if (ch.count < w) ++ch.count;
  ++ch.since_last;
  if (ch.count < w || ch.since_last < options_.hop) return std::nullopt;
  ch.since_last = 0;
  return Classify(channel);
}

int StreamingClassifier::Classify(size_t channel) {
  Channel& ch = At(channel);
  const size_t w = options_.window;
  if (ch.count < w) {
    throw std::runtime_error("StreamingClassifier: window not full (" +
                             std::to_string(ch.count) + "/" +
                             std::to_string(w) + " samples)");
  }
  // Linearize oldest-first: `head` points at the oldest sample once the
  // ring has wrapped. No sanitization here — the window is handed to the
  // extractor raw so its non-finite handling stays the single source of
  // truth.
  for (size_t i = 0; i < w; ++i) {
    ch.scratch[i] = ch.ring[(ch.head + i) % w];
  }
  obs::Count(obs::PipelineMetrics::Get().serve_predictions);
  return model_->Predict(ch.scratch, &ws_);
}

bool StreamingClassifier::Ready(size_t channel) const {
  return At(channel).count >= options_.window;
}

void StreamingClassifier::Reset(size_t channel) {
  Channel& ch = At(channel);
  ch.head = 0;
  ch.count = 0;
  ch.since_last = 0;
}

}  // namespace mvg
