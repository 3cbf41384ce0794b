// Jobs for the async runtime scheduler: shared state between the
// submitting client (JobHandle) and the dispatcher (JobRecord's Mark*
// transitions).
//
// State machine:
//
//   kQueued ──MarkRunning──> kRunning ──MarkDone────> kDone
//      │                        └──────MarkFailed──> kFailed
//      └────MarkCancelled──> kCancelled                (terminal)
//
// Wait() blocks until a terminal state and returns the JobOutcome; it
// never throws on failure/cancellation — the outcome carries the state
// so callers can branch (the scheduler tests rely on that).
//
// Layer: §10 runtime — see docs/ARCHITECTURE.md. Units: the outcome's
// queue/run times are host wall-clock seconds (SI).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "runtime/aggregate.h"
#include "stream/incremental_counter.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace tcim::runtime {

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};

/// What a job computes. kCount runs the multi-bank pipeline on a whole
/// graph; kUpdate applies one stream::EdgeDelta batch to a
/// StreamSession; kQuery counts a StreamSession's *pinned epoch* on
/// the bank pool without re-slicing (the serving read path — see
/// docs/SERVING.md). Count and query jobs share the policy lane;
/// updates ride a dedicated FIFO lane so the two kinds never race for
/// ordering (scheduler.h, "Two lanes").
enum class JobKind : std::uint8_t {
  kCount,
  kUpdate,
  kQuery,
};

[[nodiscard]] inline std::string ToString(JobKind kind) {
  switch (kind) {
    case JobKind::kCount:
      return "count";
    case JobKind::kUpdate:
      return "update";
    case JobKind::kQuery:
      return "query";
  }
  return "?";
}

[[nodiscard]] inline std::string ToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

struct JobOptions {
  /// Higher runs first under SchedulingPolicy::kPriority; ignored (pure
  /// FIFO) under kFifo. Ties break by submission order.
  int priority = 0;
  /// Free-form label carried into reports (service_simulation uses it).
  std::string tag;
};

/// Result of one epoch-pinned serving query (JobKind::kQuery).
struct QueryResult {
  std::uint64_t epoch = 0;      ///< epoch the count was pinned to
  std::uint64_t triangles = 0;  ///< bank-pool count of that epoch
  graph::VertexId num_vertices = 0;
  std::uint64_t num_edges = 0;
  /// True when this query's answer came from another query's shared
  /// count pass (request coalescing; see docs/SERVING.md).
  bool coalesced = false;
  /// Queries answered by the one pass this job belonged to (>= 1; the
  /// leader and every coalesced follower report the same value).
  std::uint64_t batch_size = 1;
};

/// Terminal result of a job, valid once state is kDone/kFailed/
/// kCancelled. On kDone exactly one payload is meaningful: `result`
/// for kCount jobs, `update` for kUpdate jobs, `query` for kQuery
/// jobs (see `kind`).
struct JobOutcome {
  JobState state = JobState::kCancelled;
  JobKind kind = JobKind::kCount;
  ClusterResult result;         ///< kCount payload
  stream::BatchResult update;   ///< kUpdate payload
  QueryResult query;            ///< kQuery payload
  /// Epoch this job interacted with: the epoch an update published, or
  /// the epoch a query pinned (== query.epoch). 0 for kCount.
  std::uint64_t epoch = 0;
  std::string error;          ///< set when kFailed
  double queue_seconds = 0.0; ///< submit → dispatch (or cancel)
  double run_seconds = 0.0;   ///< dispatch → completion
  /// Global dispatch sequence number (0 = dispatched first); the
  /// ordering probe of the FIFO/priority scheduler tests.
  std::uint64_t start_order = 0;
};

/// Shared job state. Created by the scheduler; clients hold it through
/// JobHandle. All methods are thread-safe.
class JobRecord {
 public:
  JobRecord(std::uint64_t id, JobOptions options,
            JobKind kind = JobKind::kCount)
      : id_(id), options_(std::move(options)), kind_(kind) {
    outcome_.kind = kind;
  }

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] JobKind kind() const noexcept { return kind_; }
  [[nodiscard]] const JobOptions& options() const noexcept {
    return options_;
  }

  [[nodiscard]] JobState state() const {
    util::MutexLock lock(&mu_);
    return state_;
  }

  /// Submit → dispatch wait; valid once the job left the queue
  /// (MarkRunning / MarkCancelled). Feeds the scheduler.*.wait_seconds
  /// registry histograms.
  [[nodiscard]] double QueueSeconds() const {
    util::MutexLock lock(&mu_);
    return outcome_.queue_seconds;
  }

  /// Blocks until terminal and returns the outcome (by value: the
  /// record outlives the scheduler, handles may Wait() after shutdown).
  [[nodiscard]] JobOutcome Wait() const {
    util::MutexLock lock(&mu_);
    while (!IsTerminalLocked()) cv_.Wait(mu_);
    return outcome_;
  }

  // --- dispatcher-side transitions ---------------------------------------

  /// kQueued → kRunning. Returns false (no-op) if already cancelled.
  [[nodiscard]] bool MarkRunning(std::uint64_t start_order) {
    util::MutexLock lock(&mu_);
    if (state_ != JobState::kQueued) return false;
    state_ = JobState::kRunning;
    outcome_.queue_seconds = clock_.ElapsedSeconds();
    outcome_.start_order = start_order;
    clock_.Restart();
    return true;
  }

  void MarkDone(ClusterResult result) {
    Finish(JobState::kDone, std::move(result), {}, {}, {}, 0);
  }
  /// kUpdate flavour: the payload is the batch result plus the epoch
  /// the batch published.
  void MarkDone(stream::BatchResult result, std::uint64_t epoch = 0) {
    Finish(JobState::kDone, {}, std::move(result), {}, {}, epoch);
  }
  /// kQuery flavour: the payload is the epoch-pinned query result.
  void MarkDone(QueryResult result) {
    const std::uint64_t epoch = result.epoch;
    Finish(JobState::kDone, {}, {}, std::move(result), {}, epoch);
  }
  void MarkFailed(std::string error) {
    Finish(JobState::kFailed, {}, {}, {}, std::move(error), 0);
  }

  /// kQueued → kCancelled. Returns false if the job already left the
  /// queue (running or terminal).
  [[nodiscard]] bool MarkCancelled() {
    util::MutexLock lock(&mu_);
    if (state_ != JobState::kQueued) return false;
    state_ = JobState::kCancelled;
    outcome_.state = JobState::kCancelled;
    outcome_.queue_seconds = clock_.ElapsedSeconds();
    cv_.NotifyAll();
    return true;
  }

 private:
  /// The single terminal transition; exactly one payload is set.
  void Finish(JobState state, ClusterResult result,
              stream::BatchResult update, QueryResult query,
              std::string error, std::uint64_t epoch) {
    util::MutexLock lock(&mu_);
    state_ = state;
    outcome_.state = state;
    outcome_.result = std::move(result);
    outcome_.update = std::move(update);
    outcome_.query = std::move(query);
    outcome_.epoch = epoch;
    outcome_.error = std::move(error);
    outcome_.run_seconds = clock_.ElapsedSeconds();
    cv_.NotifyAll();
  }

  [[nodiscard]] bool IsTerminalLocked() const TCIM_REQUIRES(mu_) {
    return state_ == JobState::kDone || state_ == JobState::kFailed ||
           state_ == JobState::kCancelled;
  }

  const std::uint64_t id_;
  const JobOptions options_;
  const JobKind kind_;
  mutable util::Mutex mu_;
  mutable util::CondVar cv_;
  JobState state_ TCIM_GUARDED_BY(mu_) = JobState::kQueued;
  JobOutcome outcome_ TCIM_GUARDED_BY(mu_);
  util::Timer clock_ TCIM_GUARDED_BY(mu_);  ///< re-armed at each transition
};

/// Client-side view of a submitted job.
class JobHandle {
 public:
  JobHandle() = default;
  explicit JobHandle(std::shared_ptr<JobRecord> record)
      : record_(std::move(record)) {}

  [[nodiscard]] bool valid() const noexcept { return record_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const { return record_->id(); }
  [[nodiscard]] JobState state() const { return record_->state(); }
  /// Blocks until the job reaches a terminal state.
  [[nodiscard]] JobOutcome Wait() const { return record_->Wait(); }

 private:
  std::shared_ptr<JobRecord> record_;
};

}  // namespace tcim::runtime
