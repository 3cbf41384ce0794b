#include "runtime/metrics.h"

#include <string>

#include "bitmatrix/sliced_store.h"

namespace tcim::runtime {

namespace {

SchedulerMetrics::PerKind MakePerKind(const std::string& kind) {
  obs::Registry& reg = obs::Registry::Global();
  const std::string base = "scheduler." + kind + ".";
  return SchedulerMetrics::PerKind{
      reg.GetCounter(base + "submitted_total"),
      reg.GetCounter(base + "dispatched_total"),
      reg.GetCounter(base + "done_total"),
      reg.GetHistogram(base + "wait_seconds"),
      reg.GetHistogram(base + "service_seconds"),
  };
}

}  // namespace

SchedulerMetrics& SchedulerMetrics::Get() {
  static SchedulerMetrics* metrics = [] {
    obs::Registry& reg = obs::Registry::Global();
    return new SchedulerMetrics{
        reg.GetGauge("scheduler.policy_lane.depth"),
        reg.GetGauge("scheduler.update_lane.depth"),
        reg.GetCounter("scheduler.rejected_total"),
        reg.GetCounter("scheduler.coalesced_total"),
        MakePerKind("count"),
        MakePerKind("update"),
        MakePerKind("query"),
    };
  }();
  return *metrics;
}

SchedulerMetrics::PerKind& SchedulerMetrics::ForKind(JobKind kind) {
  switch (kind) {
    case JobKind::kCount:
      return count;
    case JobKind::kUpdate:
      return update;
    case JobKind::kQuery:
      break;
  }
  return query;
}

EpochMetrics& EpochMetrics::Get() {
  static EpochMetrics* metrics = [] {
    obs::Registry& reg = obs::Registry::Global();
    return new EpochMetrics{
        reg.GetCounter("epoch.published_total"),
        reg.GetCounter("epoch.retired_total"),
        reg.GetGauge("epoch.live"),
        reg.GetHistogram("epoch.pin_seconds"),
    };
  }();
  return *metrics;
}

BankPoolMetrics& BankPoolMetrics::Get() {
  static BankPoolMetrics* metrics = [] {
    obs::Registry& reg = obs::Registry::Global();
    return new BankPoolMetrics{
        reg.GetCounter("runtime.bank.shard_runs_total"),
        reg.GetHistogram("runtime.bank.shard_seconds"),
        reg.GetGauge("runtime.bank.shard_imbalance"),
        reg.GetCounter("runtime.bank.busy_micros_total"),
        reg.GetGauge("runtime.bank.replica_bytes"),
        reg.GetGauge("runtime.bank.tile_imbalance"),
        reg.GetCounter("runtime.bank.pairs_zerocopy_total"),
        reg.GetCounter("runtime.bank.pairs_perpair_total"),
    };
  }();
  return *metrics;
}

obs::Counter& BankPoolMetrics::BankBusyMicros(std::size_t bank) {
  return obs::Registry::Global().GetCounter(
      "runtime.bank." + std::to_string(bank) + ".busy_micros_total");
}

StreamMetrics& StreamMetrics::Get() {
  static StreamMetrics* metrics = [] {
    obs::Registry& reg = obs::Registry::Global();
    return new StreamMetrics{
        reg.GetCounter("stream.batches_total"),
        reg.GetCounter("stream.recounts_total"),
        reg.GetHistogram("stream.batch_ops"),
        reg.GetHistogram("stream.apply_seconds"),
        reg.GetGauge("stream.heap_bytes"),
        reg.GetGauge("stream.shared_slab_ratio"),
        reg.GetCounter("stream.plan_invalidations_total"),
    };
  }();
  return *metrics;
}

void TouchServingMetrics() {
  SchedulerMetrics::Get();
  EpochMetrics::Get();
  BankPoolMetrics::Get();
  StreamMetrics::Get();
  bit::StoreMetrics::Get();
}

}  // namespace tcim::runtime
