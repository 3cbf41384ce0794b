#include "runtime/stream_session.h"

#include <memory>
#include <string>

#include "obs/trace.h"
#include "runtime/metrics.h"
#include "util/timer.h"

namespace tcim::runtime {

namespace {

/// True when `delta` may change the previous epoch's built serving
/// plan: the vertex space grew (is_hub / tile bounds are sized to the
/// old n), or an op endpoint is a hub column (its replicated slice
/// data changes — either endpoint, conservatively, since orientation
/// decides which side lands in the column store).
bool Invalidates2dPlan(const ServingPlan2d& plan,
                       const stream::EdgeDelta& delta,
                       graph::VertexId new_num_vertices) {
  const TilePlan2d* plan2d = plan.partition.plan2d.get();
  if (plan2d->num_vertices != new_num_vertices) {
    return true;
  }
  for (const stream::EdgeOp& op : delta.ops) {
    if (op.u < plan2d->is_hub.size() && plan2d->is_hub[op.u] != 0) return true;
    if (op.v < plan2d->is_hub.size() && plan2d->is_hub[op.v] != 0) return true;
  }
  return false;
}

}  // namespace

StreamSession::StreamSession(const graph::Graph& g,
                             stream::StreamConfig config)
    : counter_(g, config) {
  util::MutexLock lock(&writer_mu_);
  (void)PublishLocked(nullptr);  // epoch 0: the seed graph
}

std::uint64_t StreamSession::PublishLocked(const stream::EdgeDelta* delta) {
  obs::TraceSpan span("stream.publish", "stream");
  const EpochManager::Pin prev = epochs_.PinCurrent();
  EpochSnapshot snap;
  snap.orientation = counter_.config().orientation;
  snap.slice_bits = counter_.config().slice_bits;
  snap.num_vertices = counter_.graph().num_vertices();
  snap.num_edges = counter_.graph().num_edges();
  snap.triangles = counter_.triangles();
  // COW copy: O(#slabs) shared_ptr bumps; the slabs themselves are
  // shared with the previous epoch except those the batch touched.
  snap.matrix =
      std::make_shared<const bit::SlicedMatrix>(counter_.graph().matrix());

  // Serving-plan carry-forward: the new epoch shares the previous
  // epoch's plan cache when the batch provably cannot change a built
  // plan (no hub-touching ops, no vertex growth) — steady-state tail
  // traffic then re-plans zero times. Otherwise the new epoch starts
  // with the fresh cache EpochSnapshot default-constructs; the old
  // epoch keeps its own cache untouched, so pinned readers still see
  // the pre-batch plan and replicas (snapshot isolation).
  if (prev != nullptr && prev->plan2d != nullptr && delta != nullptr) {
    const PlanCache2d::PlanPtr built = prev->plan2d->Get();
    if (built != nullptr) {
      if (!Invalidates2dPlan(*built, *delta, snap.num_vertices)) {
        snap.plan2d = prev->plan2d;
      } else {
        plan2d_invalidations_.fetch_add(1, std::memory_order_relaxed);
        StreamMetrics::Get().plan_invalidations.Increment();
      }
    }
  }

  // Registry gauges of the published matrix: live heap footprint and
  // the COW effectiveness (fraction of slabs physically shared with
  // the predecessor epoch — 1.0 means the batch touched nothing).
  StreamMetrics& metrics = StreamMetrics::Get();
  metrics.heap_bytes.Set(static_cast<double>(snap.matrix->HeapBytes()));
  if (prev != nullptr && prev->matrix != nullptr) {
    const std::size_t shared =
        SharedSlabCount(prev->matrix->rows(), snap.matrix->rows()) +
        SharedSlabCount(prev->matrix->cols(), snap.matrix->cols());
    const std::size_t total =
        snap.matrix->rows().slab_count() + snap.matrix->cols().slab_count();
    if (total > 0) {
      metrics.shared_slab_ratio.Set(static_cast<double>(shared) /
                                    static_cast<double>(total));
    }
  }
  return epochs_.Publish(std::move(snap));
}

StreamSession::AppliedBatch StreamSession::Apply(
    const stream::EdgeDelta& delta) {
  util::MutexLock lock(&writer_mu_);
  std::string span_args;
  if (obs::TraceEnabled()) {
    span_args = "\"ops\":" + std::to_string(delta.size());
  }
  obs::TraceSpan span("stream.apply", "stream", std::move(span_args));
  util::Timer clock;
  stream::BatchResult result = counter_.ApplyBatch(delta);
  if (before_publish_) before_publish_();
  const std::uint64_t epoch = PublishLocked(&delta);
  {
    util::MutexLock stats_lock(&stats_mu_);
    stats_.Add(result);
  }
  StreamMetrics& metrics = StreamMetrics::Get();
  metrics.batches.Increment();
  if (result.stats.used_recount) metrics.recounts.Increment();
  metrics.batch_ops.Observe(static_cast<double>(result.stats.ops_submitted));
  metrics.apply_seconds.Observe(clock.ElapsedSeconds());
  return AppliedBatch{std::move(result), epoch};
}

std::uint64_t StreamSession::triangles() const {
  const EpochManager::Pin pin = epochs_.PinCurrent();
  return pin == nullptr ? 0 : pin->triangles;
}

graph::Graph StreamSession::Snapshot() const {
  const EpochManager::Pin pin = epochs_.PinCurrent();
  return pin == nullptr ? graph::Graph{} : MaterializeEpochGraph(*pin);
}

StreamStats StreamSession::stats() const {
  util::MutexLock lock(&stats_mu_);
  return stats_;
}

}  // namespace tcim::runtime
