#include "workloads.h"

#include <stdexcept>

#include "ts/generators.h"
#include "ts/ucr_io.h"
#include "util/random.h"

namespace e2e {

namespace {

using mvg::Dataset;
using mvg::Series;

// registry: the paper's Table 3 workload, the 12 synthetic UCR stand-ins
// at their registry sizes (short series, 96-512 samples).
Workload MakeRegistry(uint64_t seed) {
  Workload w{{}, 20};
  for (const mvg::SyntheticInfo& info : mvg::SyntheticRegistry()) {
    mvg::DatasetSplit split = mvg::MakeSynthetic(info, seed);
    w.jobs.push_back({info.name, std::move(split.train),
                      std::move(split.test), ""});
  }
  return w;
}

// long_smooth: long random walks and noisy sines. Their natural VGs are
// dense (large sum of squared degrees), so motif counting dominates each
// extract and training is a small share of the fit. Lengths are stratified
// over [1024, 1535] per class, so a seed changes the series but not the
// length mix. The cap keeps 1002 distinct test series affordable: p99 sits
// in the heavy tail of random-walk cost, and only many distinct random
// walks make that tail repeat between seeds.
constexpr int kSmoothClasses = 3;
constexpr size_t kSmoothTrainPerClass = 50;
constexpr size_t kSmoothTestPerClass = 334;
constexpr size_t kSmoothMinLength = 1024;
constexpr size_t kSmoothLengthSpan = 512;

// Class 0 is a noisy sine of 16-24 cycles, class 1 one of 4-6 cycles and
// class 2 a random walk. Test series 0, the first cold predict of set-up,
// is thus a sine, whose cost varies far less between seeds than a random
// walk's.
Series SmoothSeries(int label, size_t n, mvg::Rng* rng) {
  const uint64_t sub_seed = static_cast<uint64_t>(rng->Int(0, 1 << 30));
  if (label == 2) return mvg::RandomWalk(n, sub_seed);
  const double cycles = label == 0 ? rng->Uniform(16.0, 24.0)
                                   : rng->Uniform(4.0, 6.0);
  Series s = mvg::Sine(n, static_cast<double>(n) / cycles, 1.0,
                       rng->Uniform(0.0, 6.283185307179586));
  const Series noise = mvg::GaussianNoise(n, sub_seed, 0.2);
  for (size_t i = 0; i < n; ++i) s[i] += noise[i];
  return s;
}

Dataset SmoothPart(const char* name, size_t per_class, mvg::Rng* rng) {
  Dataset ds(name);
  // Classes interleaved, so every prefix of the split covers them all;
  // within a class the lengths visit the strata in a fixed scrambled order
  // (7919 is prime, so k -> 7919 k mod per_class is a permutation).
  for (size_t i = 0; i < per_class * kSmoothClasses; ++i) {
    const int label = static_cast<int>(i % kSmoothClasses);
    const size_t stratum = (i / kSmoothClasses) * 7919 % per_class;
    const size_t n = kSmoothMinLength + stratum * kSmoothLengthSpan / per_class;
    ds.Add(SmoothSeries(label, n, rng), label);
  }
  return ds;
}

Workload MakeLongSmooth(uint64_t seed) {
  mvg::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  Workload w{{}, 24};
  Job job{"LongSmooth", SmoothPart("LongSmooth", kSmoothTrainPerClass, &rng),
          SmoothPart("LongSmooth", kSmoothTestPerClass, &rng), ""};
  w.jobs.push_back(std::move(job));
  return w;
}

// bulk_paged: one registry family scaled to thousands of training rows,
// written as a UCR file and fitted out of core.
Workload MakeBulkPaged(uint64_t seed, const std::string& work_dir) {
  mvg::SyntheticInfo info;
  for (const mvg::SyntheticInfo& entry : mvg::SyntheticRegistry()) {
    if (entry.family == "devices") info = entry;
  }
  info.train_size = 2000;
  info.test_size = 1000;
  mvg::DatasetSplit split = mvg::MakeSynthetic(info, seed);
  Workload w{{}, 200};
  const std::string path = work_dir + "/bulk_paged_TRAIN";
  mvg::WriteUcrFile(split.train, path);
  w.jobs.push_back({info.name, Dataset(info.name), std::move(split.test),
                    path});
  return w;
}

}  // namespace

Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::string& work_dir) {
  if (name == "registry") return MakeRegistry(seed);
  if (name == "long_smooth") return MakeLongSmooth(seed);
  if (name == "bulk_paged") return MakeBulkPaged(seed, work_dir);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace e2e
