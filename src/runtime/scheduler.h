// Async job scheduler: the concurrent front door of the multi-bank
// runtime. Clients Submit(graph) / SubmitQuery(session) /
// SubmitUpdate(session, delta) from any thread and get a JobHandle
// with future-style Wait(); dispatcher threads pull jobs off two
// thread-safe lanes and run them on the shared BankPool.
//
// Two lanes (the cross-kind ordering fix; docs/SERVING.md):
//  * the POLICY lane holds count and query jobs, ordered FIFO or by
//    priority — reads have no ordering obligation beyond the epoch
//    they pin, so the policy may reorder them freely;
//  * the UPDATE lane is strict FIFO per session at ANY dispatch_threads
//    count: a session's next batch dispatches only when its previous
//    batch finished (per-session busy set), so updates serialize among
//    themselves in submission order. Updates for different sessions
//    still run concurrently, and updates never wait behind queued
//    counts or queries (nor vice versa).
//
// Query jobs pin the session's current epoch AT DISPATCH and count it
// on the bank pool without re-slicing (BankPool::HostCountEpoch over
// the pinned COW matrix). Queries queued for the same session COALESCE
// at dispatch: the leader absorbs every queued query for that session,
// pins once, runs ONE shared pass, and resolves them all — because
// pinning happens at dispatch, the coalesced answer is the same one
// each query would have computed alone.
//
// Admission control: with max_pending > 0, a submission that would
// push pending() past the bound is REJECTED — its handle resolves to
// kFailed immediately ("admission: queue full") and rejected() ticks.
// Rejection is a handle outcome, not an exception: the serving front
// end sheds load by branching, not by unwinding.
//
// Shutdown is graceful in two flavours:
//  * kDrain         — stop accepting, finish everything queued;
//  * kCancelPending — stop accepting, cancel still-queued jobs
//                     (their handles resolve to kCancelled), finish
//                     only the jobs already running.
// The destructor drains. Pause()/Resume() gate dispatch without
// touching the queues — tests use it to stage deterministic orderings,
// operators to hold traffic during reconfiguration.
//
// Layer: §10 runtime — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"
#include "runtime/bank_pool.h"
#include "runtime/job.h"
#include "runtime/stream_session.h"
#include "stream/edge_delta.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tcim::runtime {

enum class SchedulingPolicy : std::uint8_t {
  kFifo,      ///< strict submission order
  kPriority,  ///< JobOptions::priority desc, FIFO within a priority
};

struct SchedulerConfig {
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  /// Jobs in flight at once. Each dispatched job still fans out over
  /// all banks; >1 interleaves shard tasks of multiple jobs on the
  /// pool's workers — and lets queries run while an update applies.
  std::uint32_t dispatch_threads = 1;
  /// Admission bound: submissions beyond this many pending jobs are
  /// rejected (handle resolves kFailed). 0 = unlimited.
  std::uint64_t max_pending = 0;
  BankPoolConfig pool;
};

/// Test-only interleaving hooks, injected with SetTestHooks BEFORE any
/// submission. They let scheduler_test pin exact orders ("publish
/// during count", "pin during publish", "retire while last reader
/// exits") instead of hoping a stress run hits them. Hooks run on
/// dispatcher threads; they must not call back into the scheduler.
struct SchedulerTestHooks {
  /// After a query leader pinned its epoch, before counting begins.
  std::function<void(std::uint64_t /*epoch*/)> after_query_pin;
  /// After MarkRunning, before the job's work runs.
  std::function<void(JobKind)> before_job_run;
  /// After the job's work, before the terminal Mark*.
  std::function<void(JobKind)> after_job_run;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config);
  ~Scheduler();  // Shutdown(kDrain)
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a counting job; thread-safe. Throws std::runtime_error
  /// after Shutdown(). May resolve kFailed without queueing under
  /// admission control (max_pending).
  [[nodiscard]] JobHandle Submit(graph::Graph graph, JobOptions options = {});

  /// Enqueues an epoch-pinned serving query against `session`: at
  /// dispatch the job pins the session's current epoch and counts it
  /// on the bank pool (no re-slice; the COW matrix is counted as-is).
  /// Queries for the same session coalesce at dispatch into one shared
  /// pass (JobOutcome::query reports batch_size/coalesced). Rides the
  /// policy lane with counting jobs. Thread-safe; throws
  /// std::runtime_error after Shutdown() and std::invalid_argument on
  /// a null session.
  [[nodiscard]] JobHandle SubmitQuery(std::shared_ptr<StreamSession> session,
                                      JobOptions options = {});

  /// Enqueues a streaming-update job: one EdgeDelta batch applied to
  /// `session` (shared, usually across many update jobs). Updates ride
  /// the dedicated FIFO update lane: batches for one session apply in
  /// SUBMISSION order at any dispatch_threads count and never queue
  /// behind counts or queries. The outcome's `update` payload carries
  /// the batch's delta/new total/stats; `epoch` the published epoch.
  /// Thread-safe; throws std::runtime_error after Shutdown() and
  /// std::invalid_argument on a null session.
  [[nodiscard]] JobHandle SubmitUpdate(std::shared_ptr<StreamSession> session,
                                       stream::EdgeDelta delta,
                                       JobOptions options = {});

  /// Holds dispatch (running jobs finish; queued jobs stay queued).
  void Pause();
  /// Releases Pause().
  void Resume();

  enum class ShutdownMode : std::uint8_t { kDrain, kCancelPending };
  /// Idempotent and safe to call from several threads; returns once
  /// every dispatcher thread has exited. Implies Resume() — a paused
  /// scheduler drains, it never deadlocks.
  void Shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Installs the test hooks. Call before the first submission; not
  /// synchronized against in-flight dispatch.
  void SetTestHooks(SchedulerTestHooks hooks) { hooks_ = std::move(hooks); }

  // --- introspection ------------------------------------------------------
  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t pending() const;   ///< queued, both lanes
  [[nodiscard]] std::uint64_t running() const;
  [[nodiscard]] std::uint64_t completed() const; ///< done + failed + cancelled
  [[nodiscard]] std::uint64_t rejected() const;  ///< admission rejections
  [[nodiscard]] std::uint64_t coalesced() const; ///< queries answered by a
                                                 ///< shared pass (followers)
  [[nodiscard]] const BankPool& pool() const noexcept { return pool_; }
  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

 private:
  struct QueueEntry {
    std::shared_ptr<JobRecord> record;
    graph::Graph graph;                      ///< kCount payload
    std::shared_ptr<StreamSession> session;  ///< kUpdate/kQuery payload
    stream::EdgeDelta delta;                 ///< kUpdate payload
    std::uint64_t sequence = 0;  ///< submission order, FIFO tiebreak
  };

  void DispatcherLoop();
  /// The DispatcherLoop wait predicate: true when a dispatcher has
  /// work it may take right now, or (during shutdown) when both lanes
  /// drained and the thread should exit. Caller holds mu_.
  [[nodiscard]] bool DispatcherShouldWakeLocked() const TCIM_REQUIRES(mu_);
  /// Pops the next policy-lane entry per policy; lane must be
  /// non-empty. Caller holds mu_.
  QueueEntry PopPolicyLocked() TCIM_REQUIRES(mu_);
  /// Index of the first update-lane entry whose session is not busy,
  /// or update lane size when none is dispatchable. Caller holds mu_.
  [[nodiscard]] std::size_t DispatchableUpdateLocked() const
      TCIM_REQUIRES(mu_);
  /// Admission check + record creation shared by the Submit* fronts.
  /// Returns {record, admitted}; a rejected record is already terminal
  /// (kFailed) and must not be queued. Caller holds mu_.
  std::pair<std::shared_ptr<JobRecord>, bool> AdmitLocked(JobKind kind,
                                                          JobOptions options)
      TCIM_REQUIRES(mu_);
  /// Mirrors the lane depths into the scheduler.* registry gauges.
  /// Caller holds mu_.
  void UpdateDepthGaugesLocked() const TCIM_REQUIRES(mu_);
  /// Runs one entry (and its coalesced followers) outside mu_.
  void RunEntry(QueueEntry entry, std::vector<QueueEntry> followers,
                std::uint64_t start_order,
                std::vector<std::uint64_t> follower_orders);

  const SchedulerConfig config_;
  BankPool pool_;
  SchedulerTestHooks hooks_;

  mutable util::Mutex mu_;
  util::CondVar cv_;
  /// kCount + kQuery
  std::deque<QueueEntry> policy_lane_ TCIM_GUARDED_BY(mu_);
  /// kUpdate, FIFO
  std::deque<QueueEntry> update_lane_ TCIM_GUARDED_BY(mu_);
  /// Sessions with an update batch currently applying — the gate that
  /// keeps one session's batches in submission order.
  std::unordered_set<const StreamSession*> busy_sessions_
      TCIM_GUARDED_BY(mu_);
  bool accepting_ TCIM_GUARDED_BY(mu_) = true;
  bool cancel_pending_ TCIM_GUARDED_BY(mu_) = false;
  bool paused_ TCIM_GUARDED_BY(mu_) = false;
  bool shut_down_ TCIM_GUARDED_BY(mu_) = false;
  std::uint64_t next_sequence_ TCIM_GUARDED_BY(mu_) = 0;
  /// Submissions that entered a lane.
  std::uint64_t accepted_ TCIM_GUARDED_BY(mu_) = 0;
  std::uint64_t next_start_order_ TCIM_GUARDED_BY(mu_) = 0;
  std::uint64_t running_ TCIM_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ TCIM_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ TCIM_GUARDED_BY(mu_) = 0;
  std::uint64_t coalesced_ TCIM_GUARDED_BY(mu_) = 0;
  util::Mutex join_mu_;  ///< serializes the Shutdown join phase
  /// Written only in the constructor; joined under join_mu_.
  std::vector<std::thread> dispatchers_;
};

}  // namespace tcim::runtime
