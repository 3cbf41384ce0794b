// Epoch-based snapshot isolation for the serving runtime.
//
// The storage layer (bitmatrix/sliced_store.h) makes SlicedMatrix
// copies cheap — O(#slabs) shared_ptr bumps, touched slabs only — so
// the runtime can afford to publish a *complete immutable matrix* per
// applied batch. EpochManager is the MVCC hinge between one writer and
// many readers:
//
//   writer:   ApplyBatch → Publish(EpochSnapshot)   (advances current)
//   readers:  PinCurrent() → count on pin->matrix   (never blocks)
//   retire:   last pin of an old epoch drops        (slabs freed)
//
// Pins are plain shared_ptr<const EpochSnapshot>: pinning is one
// atomic refcount bump under a short mutex (no reader ever waits on a
// writer's Apply), and retirement is the *synchronous* destructor of
// the last reference — the moment the final pin of a superseded epoch
// drops, its snapshot (and every COW slab only it held) is freed and
// the retired() counter ticks. Tests assert live/retired counts
// immediately after dropping a pin; no polling, no grace periods.
//
// Memory bound: live bytes = current matrix + Σ over live old epochs
// of the slabs their successor batches touched (docs/SERVING.md works
// the arithmetic). live_epochs() is the knob to watch in a server.
//
// Layer: §10 runtime — see docs/ARCHITECTURE.md and docs/SERVING.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bitmatrix/sliced_matrix.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "runtime/partitioner.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tcim::runtime {

/// A materialized serving plan for one epoch: the tile/hub partition
/// (any strategy; a 1D plan has no hubs) plus the per-bank hub-column
/// replica stores (COW extracts
/// of the epoch matrix's column store — shared slabs, so N replicas of
/// k hub columns cost ~one copy of those columns, not N).
struct ServingPlan2d {
  GraphPartition partition;
  /// One replica store per bank, or none when the plan has no hubs;
  /// same shape as the epoch matrix's column store with non-hub
  /// vectors empty (see bit::SlicedStore::ExtractVectors).
  std::vector<bit::SlicedStore> replicas;
};

/// Lazily-built, shareable cache of one epoch's ServingPlan2d.
///
/// The pointer lives on the EpochSnapshot so the plan follows the
/// epoch's lifetime, and StreamSession *carries the same cache object
/// forward* across publishes whose batches provably cannot change the
/// plan (no hub-touching ops, no vertex growth) — that carry-forward
/// is what keeps the read path from re-planning per batch. When a
/// batch may invalidate the plan the session attaches a fresh, empty
/// cache instead (it never mutates a published one, so pinned readers
/// of old epochs keep their plan).
class PlanCache2d {
 public:
  using PlanPtr = std::shared_ptr<const ServingPlan2d>;

  /// The cached plan, or null if none was built yet.
  [[nodiscard]] PlanPtr Get() const {
    util::MutexLock lock(&mu_);
    return plan_;
  }
  /// True once a plan has been built (used by the invalidation metric:
  /// only a *built* plan being dropped counts as an invalidation).
  [[nodiscard]] bool has_plan() const {
    util::MutexLock lock(&mu_);
    return plan_ != nullptr;
  }
  /// Returns the cached plan if it matches `strategy` and `num_banks`,
  /// else builds one via `build` and caches it. The checks make a
  /// carry-forward built by a different pool a rebuild, not a plan of
  /// the wrong shape.
  /// `build` runs under mu_ (one builder at a time, by design: a plan
  /// is expensive and concurrent queries should share one build).
  [[nodiscard]] PlanPtr GetOrBuild(
      PartitionStrategy strategy, std::uint32_t num_banks,
      const std::function<ServingPlan2d()>& build) {
    util::MutexLock lock(&mu_);
    if (plan_ == nullptr || plan_->partition.stats.strategy != strategy ||
        plan_->partition.shards.size() != num_banks) {
      plan_ = std::make_shared<const ServingPlan2d>(build());
    }
    return plan_;
  }

 private:
  mutable util::Mutex mu_;
  PlanPtr plan_ TCIM_GUARDED_BY(mu_);
};

/// One published, immutable version of a streamed graph. Everything a
/// reader needs to count (and to cross-check the count) without ever
/// touching writer state again.
struct EpochSnapshot {
  std::uint64_t epoch = 0;  ///< stamped by Publish; strictly increasing
  graph::Orientation orientation = graph::Orientation::kUpper;
  std::uint32_t slice_bits = 64;
  graph::VertexId num_vertices = 0;
  std::uint64_t num_edges = 0;
  /// The writer's maintained count at publication — the oracle every
  /// epoch-pinned recount must reproduce exactly.
  std::uint64_t triangles = 0;
  /// COW copy of the sliced matrix as of this epoch; immutable.
  std::shared_ptr<const bit::SlicedMatrix> matrix;
  /// Shared serving-plan cache (lazily built by the first query
  /// against this epoch; carried forward across publishes whose
  /// batches cannot invalidate it — see PlanCache2d). Always non-null.
  std::shared_ptr<PlanCache2d> plan2d = std::make_shared<PlanCache2d>();
};

class EpochManager {
 public:
  /// A pinned epoch: holding one keeps the snapshot (and its slabs)
  /// alive. Copyable; dropping the last Pin of a superseded epoch
  /// retires it synchronously.
  using Pin = std::shared_ptr<const EpochSnapshot>;

  EpochManager() : counters_(std::make_shared<Counters>()) {}
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Stamps `snapshot` with the next epoch id, makes it current, and
  /// returns the id. The previous epoch stays alive while any Pin
  /// holds it. Writer-side only (externally serialized; StreamSession
  /// calls it under its writer lock).
  std::uint64_t Publish(EpochSnapshot snapshot);

  /// Pins the current epoch. Never blocks on a writer's ApplyBatch —
  /// only on another Pin/Publish pointer swap (a few instructions).
  /// Null until the first Publish.
  [[nodiscard]] Pin PinCurrent() const;

  /// Id of the current epoch (0 before the first Publish).
  [[nodiscard]] std::uint64_t current_epoch() const;
  /// Number of Publish calls.
  [[nodiscard]] std::uint64_t published() const noexcept {
    return counters_->published.load(std::memory_order_relaxed);
  }
  /// Epochs whose snapshot is still referenced (current counts as 1).
  [[nodiscard]] std::uint64_t live_epochs() const noexcept {
    return counters_->live.load(std::memory_order_relaxed);
  }
  /// Epochs fully released (snapshot destroyed, slabs freed).
  [[nodiscard]] std::uint64_t retired() const noexcept {
    return counters_->retired.load(std::memory_order_relaxed);
  }

 private:
  /// Shared with every snapshot's deleter so retirement accounting
  /// survives the manager (a pin may outlive it).
  struct Counters {
    std::atomic<std::uint64_t> published{0};
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> retired{0};
  };

  std::shared_ptr<Counters> counters_;
  mutable util::Mutex mu_;  ///< guards the current_ swap only
  Pin current_ TCIM_GUARDED_BY(mu_);
  std::uint64_t next_epoch_ TCIM_GUARDED_BY(mu_) = 0;
};

/// From-scratch materialization of a pinned epoch as an undirected
/// graph::Graph — the sequential-oracle path of the snapshot tests:
/// rebuild the graph from the *matrix alone* and recount with a
/// baseline. Under kUpper/kDegree every stored arc is one undirected
/// edge; under kFullSymmetric both directions are stored and the
/// builder dedupes them.
[[nodiscard]] graph::Graph MaterializeEpochGraph(const EpochSnapshot& epoch);

}  // namespace tcim::runtime
