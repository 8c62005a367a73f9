#ifndef MVG_DIST_COORDINATOR_H_
#define MVG_DIST_COORDINATOR_H_

// Multi-process distributed training over socketpairs: the coordinator
// process forks N workers, each of which runs the caller's fit function
// with a SocketReducer and ships the serialized model bytes back. The
// coordinator is the hub of a star topology — it sums every allreduce
// round and broadcasts the result, then verifies all workers produced
// byte-identical models (the determinism contract, enforced at runtime
// on every distributed train). Wire protocol: util/framing.h, specified
// in docs/FORMATS.md.

#include <cstdint>
#include <functional>
#include <string>

#include "ml/histogram_reducer.h"

namespace mvg {

/// Worker-side transport endpoint: each AllreduceSum sends one
/// kMsgAllreduceI64 frame and blocks for the matching kMsgAllreduceResult.
class SocketReducer : public HistogramReducer {
 public:
  SocketReducer(int fd, size_t rank, size_t world)
      : fd_(fd), rank_(rank), world_(world) {}

  size_t rank() const override { return rank_; }
  size_t world_size() const override { return world_; }
  void AllreduceSum(int64_t* data, size_t count) override;

 private:
  int fd_;
  size_t rank_;
  size_t world_;
  uint64_t seq_ = 0;
};

/// Runs `fit` in `workers` forked processes (rank w gets a SocketReducer
/// with that rank) and returns the verified model bytes. Throws
/// std::runtime_error with a clean message — after killing and reaping
/// the whole fleet, never hanging — when a worker dies mid-reduce,
/// reports an error, or the workers' model bytes disagree.
///
/// Fork-safety: call this before any threads exist in the calling
/// process (in particular before Executor::SetGlobalConcurrency / any
/// Executor::Global().ParallelFor) — the children are free to create
/// their own pools after the fork, the parent only does frame I/O.
std::string RunDistributedTraining(
    size_t workers,
    const std::function<std::string(HistogramReducer*)>& fit);

}  // namespace mvg

#endif  // MVG_DIST_COORDINATOR_H_
