// StreamSession: a live graph under streaming updates, shared between
// the scheduler's update jobs, its query jobs, and direct callers —
// the writer half of the epoch-snapshot serving layer.
//
// stream::IncrementalCounter is single-threaded by design (the overlay
// bookkeeping assumes batches apply one at a time); StreamSession adds
// the concurrency contract the runtime needs:
//
//  * Apply() serializes batches under the writer lock, then PUBLISHES
//    the post-batch state as an immutable EpochSnapshot (a COW copy of
//    the sliced matrix — O(#slabs) pointer bumps plus the slabs the
//    batch touched; see bitmatrix/sliced_store.h).
//  * PinEpoch() / triangles() / Snapshot() read the *published* epoch
//    and never take the writer lock: readers never block on a batch in
//    flight, they see the last published state. This is the snapshot-
//    isolation contract the snapshot/stress tests enforce against the
//    sequential oracle (docs/SERVING.md).
//
// Batch ordering across concurrent Apply() callers is whatever order
// the writer lock is won; the Scheduler's dedicated update lane
// guarantees submission order for SubmitUpdate batches (scheduler.h).
//
// Layer: §10 runtime — see docs/ARCHITECTURE.md and docs/SERVING.md.
// Units: SI seconds in StreamStats; counts dimensionless.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "graph/graph.h"
#include "runtime/aggregate.h"
#include "runtime/epoch_manager.h"
#include "stream/edge_delta.h"
#include "stream/incremental_counter.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tcim::runtime {

class StreamSession {
 public:
  /// Seeds the live graph and publishes epoch 0 (the seed snapshot),
  /// so readers have a pinnable state before any batch applies.
  explicit StreamSession(const graph::Graph& g,
                         stream::StreamConfig config = {});

  /// What one Apply() did: the batch result plus the epoch id the
  /// post-batch state was published under.
  struct AppliedBatch {
    stream::BatchResult batch;
    std::uint64_t epoch = 0;
  };

  /// Applies one batch (serialized under the writer lock; blocks while
  /// another batch is in flight — never while readers count), folds
  /// its stats into the aggregate, and publishes the new epoch.
  AppliedBatch Apply(const stream::EdgeDelta& delta);

  /// Pins the current published epoch; never blocks on a writer.
  [[nodiscard]] EpochManager::Pin PinEpoch() const {
    return epochs_.PinCurrent();
  }
  /// Triangle count of the published epoch; never blocks on a writer.
  [[nodiscard]] std::uint64_t triangles() const;
  /// Consistent graph copy of the published epoch (for
  /// Scheduler::Submit counting jobs interleaved with the stream);
  /// never blocks on a writer.
  [[nodiscard]] graph::Graph Snapshot() const;
  /// Aggregate over every batch applied so far.
  [[nodiscard]] StreamStats stats() const;
  /// Built serving plans dropped because a batch touched a hub
  /// column or grew the vertex space (stream.plan_invalidations_total
  /// for this session only; the hub-flip regression test's probe).
  [[nodiscard]] std::uint64_t plan2d_invalidations() const noexcept {
    return plan2d_invalidations_.load(std::memory_order_relaxed);
  }
  /// Epoch bookkeeping (published / live / retired counters).
  [[nodiscard]] const EpochManager& epochs() const noexcept {
    return epochs_;
  }

  /// Test-only: runs inside Apply() after the batch has been applied
  /// but BEFORE the new epoch publishes — the deterministic-
  /// interleaving hook the scheduler tests use to hold a writer
  /// mid-publish while readers pin. Set before any concurrent use.
  void SetBeforePublishHook(std::function<void()> hook) {
    before_publish_ = std::move(hook);
  }

 private:
  /// Builds and publishes the snapshot of counter_'s current state.
  /// `delta` is the batch that produced it (nullptr for the seed
  /// publish) — it decides whether the previous epoch's serving-
  /// plan cache carries forward or the new epoch starts fresh. Caller
  /// holds writer_mu_.
  std::uint64_t PublishLocked(const stream::EdgeDelta* delta)
      TCIM_REQUIRES(writer_mu_);

  mutable util::Mutex writer_mu_;  ///< serializes Apply (and the ctor)
  /// The single-threaded incremental counter; every touch is a batch
  /// apply or a publish, both under the writer lock.
  stream::IncrementalCounter counter_ TCIM_GUARDED_BY(writer_mu_);
  EpochManager epochs_;
  std::function<void()> before_publish_;  ///< test hook; set pre-concurrency
  mutable util::Mutex stats_mu_;  ///< guards stats_ (readers vs writer)
  StreamStats stats_ TCIM_GUARDED_BY(stats_mu_);
  std::atomic<std::uint64_t> plan2d_invalidations_{0};
};

}  // namespace tcim::runtime
