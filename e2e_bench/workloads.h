#ifndef MVG_E2E_BENCH_WORKLOADS_H_
#define MVG_E2E_BENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ts/dataset.h"

namespace e2e {

/// One fit/serve unit of a workload: a train split fitted into one model,
/// and the test split that model serves.
struct Job {
  std::string name;
  mvg::Dataset train;
  mvg::Dataset test;
  /// When non-empty, the train split lives in this UCR file and is fitted
  /// out of core with MvgClassifier::FitPaged; `train` is then empty.
  std::string train_file;
};

struct Workload {
  std::vector<Job> jobs;
  /// Test series per job that the traced run replays stage by stage (the
  /// first ones of each test split). Fixed per workload, so the exact
  /// work counts of the trace repeat for a given seed.
  size_t trace_per_job = 0;
};

/// Rows per PagedUcrReader page, for FitPaged and the traced paging pass.
inline constexpr size_t kPageRows = 64;

/// Builds the inputs of workload `name` (registry, long_smooth or
/// bulk_paged) from `seed`: the same seed gives the same inputs.
/// `work_dir` receives the UCR file of a paged workload. Throws
/// std::invalid_argument on an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      const std::string& work_dir);

}  // namespace e2e

#endif  // MVG_E2E_BENCH_WORKLOADS_H_
