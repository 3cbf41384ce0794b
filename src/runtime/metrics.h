// Serving-layer metric groups over obs::Registry.
//
// Each struct caches references to its registry entries so the
// instrumented code pays a relaxed atomic bump, not a name lookup.
// Get() registers the whole group on first call — scrape surfaces
// (tcim_cli --metrics-json) call Get() up front so every serving
// metric appears in the dump, zero-valued, even before traffic.
//
// Units follow the repo convention: *_seconds histograms record
// seconds, *_total counters are monotonically increasing event
// counts, gauges are instantaneous levels. docs/OBSERVABILITY.md is
// the operator-facing catalog.
//
// Layer: §13 runtime — see docs/ARCHITECTURE.md.
#pragma once

#include "obs/metrics.h"
#include "runtime/job.h"

namespace tcim::runtime {

// scheduler.* — two-lane async scheduler (src/runtime/scheduler.*).
struct SchedulerMetrics {
  struct PerKind {
    obs::Counter& submitted;       // jobs accepted into a lane
    obs::Counter& dispatched;      // jobs handed to a worker
    obs::Counter& done;            // jobs finished (ok or failed)
    obs::Histogram& wait_seconds;  // submit -> dispatch
    obs::Histogram& service_seconds;  // dispatch -> done
  };

  obs::Gauge& policy_depth;   // queued entries, policy lane
  obs::Gauge& update_depth;   // queued entries, update lane
  obs::Counter& rejected;     // shed by max_pending admission
  obs::Counter& coalesced;    // queries folded into a queued twin
  PerKind count;
  PerKind update;
  PerKind query;

  static SchedulerMetrics& Get();
  PerKind& ForKind(JobKind kind);
};

// epoch.* — MVCC snapshot lifecycle (src/runtime/epoch_manager.*).
struct EpochMetrics {
  obs::Counter& published;        // epochs made current
  obs::Counter& retired;          // epochs freed on last unpin
  obs::Gauge& live;               // snapshots currently reachable
  obs::Histogram& pin_seconds;    // PinCurrent latency

  static EpochMetrics& Get();
};

// runtime.bank.* — bank pool shard execution (src/runtime/bank_pool.*).
struct BankPoolMetrics {
  obs::Counter& shard_runs;          // RunShards fan-outs
  obs::Histogram& shard_seconds;     // one sample per shard task
  obs::Gauge& shard_imbalance;       // max/mean shard time, last run
  obs::Counter& bank_busy_micros;    // summed shard wall time, all banks
  obs::Gauge& replica_bytes;         // 2D hub-replica bytes, last plan
  obs::Gauge& tile_imbalance;        // 2D max/mean bank weight, last plan
  // Kernel-path routing on the host-kernel count paths: valid pairs
  // consumed per path (kernel_backend.h, ChooseDirectPairLoop).
  obs::Counter& pairs_zero_copy;     // pairs via zero-copy descriptors
  obs::Counter& pairs_per_pair;      // pairs via the direct per-pair loop

  static BankPoolMetrics& Get();
  // Per-bank busy counter, registered on first use:
  // runtime.bank.<index>.busy_micros_total
  static obs::Counter& BankBusyMicros(std::size_t bank);
};

// stream.* — streaming update sessions (src/runtime/stream_session.*).
struct StreamMetrics {
  obs::Counter& batches;             // Apply calls
  obs::Counter& recounts;            // batches that fell back to recount
  obs::Histogram& batch_ops;         // delta size (edge ops per batch)
  obs::Histogram& apply_seconds;     // Apply incl. publish
  obs::Gauge& heap_bytes;            // live matrix heap, last publish
  obs::Gauge& shared_slab_ratio;     // slabs shared with prior epoch
  obs::Counter& plan_invalidations;  // 2D serving plans dropped by a batch

  static StreamMetrics& Get();
};

// Registers every serving metric group (plus the bitmatrix store.*
// group) so a scrape lists the full catalog even in a process that
// never constructed a Scheduler or StreamSession.
void TouchServingMetrics();

}  // namespace tcim::runtime
