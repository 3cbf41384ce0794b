// service_simulation — a snapshot-serving front end over the
// multi-bank runtime: tenant threads fire epoch-pinned triangle
// queries at a live graph while a writer streams edge updates through
// the scheduler, the "heavy concurrent traffic" scenario of the
// ROADMAP north star (docs/SERVING.md).
//
// What it exercises:
//  * concurrent query + update lanes — readers pin immutable COW
//    epochs and never block the writer (or vice versa);
//  * per-tenant priorities — tenant 0 is urgent under --policy
//    priority, visible in its latency percentiles;
//  * request coalescing — queued queries for the session collapse into
//    shared count passes (the Coal column);
//  * admission control — with --max-pending the scheduler sheds load
//    as failed handles instead of queueing without bound;
//  * exactness — every answered query is checked against a sequential
//    replay oracle at the epoch it pinned, and the final state against
//    the CPU baseline. Any mismatch exits 1.
//
//   service_simulation --tenants 3 --queries 20 --batches 15 \
//                      --banks 4 --policy priority --max-pending 64
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/cpu_tc.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/aggregate.h"
#include "runtime/metrics.h"
#include "runtime/scheduler.h"
#include "runtime/stream_session.h"
#include "stream/edge_delta.h"
#include "stream/incremental_counter.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace tcim;

struct Options {
  std::uint32_t tenants = 3;
  std::uint32_t queries = 20;  // per tenant
  std::uint32_t batches = 15;  // writer update stream
  std::uint32_t banks = 4;
  std::uint64_t max_pending = 0;  // 0 = unlimited
  std::string policy = "priority";
  std::uint64_t seed = 7;
  std::uint32_t stats_interval_ms = 250;  // 0 = no periodic stats line
};

bool Parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--tenants" && (v = next())) {
      opt.tenants = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--queries" && (v = next())) {
      opt.queries = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--batches" && (v = next())) {
      opt.batches = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--banks" && (v = next())) {
      opt.banks = static_cast<std::uint32_t>(std::stoul(v));
    } else if (arg == "--max-pending" && (v = next())) {
      opt.max_pending = std::stoull(v);
    } else if (arg == "--policy" && (v = next())) {
      opt.policy = v;
    } else if (arg == "--seed" && (v = next())) {
      opt.seed = std::stoull(v);
    } else if (arg == "--stats-interval-ms" && (v = next())) {
      opt.stats_interval_ms = static_cast<std::uint32_t>(std::stoul(v));
    } else {
      std::cout << "usage: service_simulation [--tenants N] [--queries N] "
                   "[--batches N] [--banks N] [--max-pending N] "
                   "[--policy fifo|priority] [--seed N] "
                   "[--stats-interval-ms N (0 disables)]\n";
      return false;
    }
  }
  return true;
}

/// Per-tenant traffic accounting, written by the tenant's own thread
/// and read after the join.
struct TenantStats {
  int priority = 0;
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t coalesced = 0;
  runtime::LatencyRecorder latency;
  std::vector<runtime::JobOutcome> outcomes;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!Parse(argc, argv, opt)) return 2;

  // The live graph: a clustered social-network stand-in.
  const graph::Graph seed_graph = graph::HolmeKim(400, 3000, 0.8, opt.seed);
  auto session = std::make_shared<runtime::StreamSession>(seed_graph);

  runtime::SchedulerConfig config;
  config.policy = opt.policy == "fifo" ? runtime::SchedulingPolicy::kFifo
                                       : runtime::SchedulingPolicy::kPriority;
  config.dispatch_threads = 2;  // one lane's job may overlap the other's
  config.max_pending = opt.max_pending;
  config.pool.num_banks = opt.banks;
  config.pool.accelerator.array.capacity_bytes = 1ULL << 20;
  std::optional<runtime::Scheduler> scheduler;
  try {
    scheduler.emplace(config);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  util::PrintBanner(std::cout, "Snapshot-serving simulation");
  std::cout << "  " << opt.tenants << " tenants x " << opt.queries
            << " queries vs " << opt.batches << " update batches, "
            << opt.banks << " banks, policy " << opt.policy
            << ", max_pending " << opt.max_pending << ", seed " << opt.seed
            << "\n  seed graph: " << seed_graph.num_vertices()
            << " vertices, " << seed_graph.num_edges() << " edges, "
            << session->triangles() << " triangles\n";

  // Pre-generate the update stream so the oracle can replay it later.
  util::Xoshiro256 delta_rng{opt.seed ^ 0xD317A};
  std::vector<stream::EdgeDelta> deltas(opt.batches);
  for (stream::EdgeDelta& delta : deltas) {
    for (int k = 0; k < 12; ++k) {
      const auto u = static_cast<graph::VertexId>(delta_rng() % 410);
      const auto v = static_cast<graph::VertexId>(delta_rng() % 410);
      if (delta_rng() % 3 == 0) {
        delta.Erase(u, v);
      } else {
        delta.Insert(u, v);
      }
    }
  }

  // Monitor thread: a periodic one-line scrape of the live registry —
  // queue depths, throughput, shed/coalesce counts, epochs alive —
  // the same counters `tcim_cli --metrics-json` exports, sampled while
  // the traffic is actually in flight.
  std::atomic<bool> traffic_done{false};
  std::thread monitor;
  if (opt.stats_interval_ms > 0) {
    monitor = std::thread([&] {
      const runtime::SchedulerMetrics& sched = runtime::SchedulerMetrics::Get();
      const runtime::EpochMetrics& epoch = runtime::EpochMetrics::Get();
      util::Timer clock;
      while (!traffic_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opt.stats_interval_ms));
        if (traffic_done.load(std::memory_order_relaxed)) break;
        std::cout << "  [stats " << util::FormatSeconds(clock.ElapsedSeconds())
                  << "] depth policy=" << sched.policy_depth.Value()
                  << " update=" << sched.update_depth.Value()
                  << " | done queries=" << sched.query.done.Value()
                  << " updates=" << sched.update.done.Value()
                  << " | coalesced=" << sched.coalesced.Value()
                  << " shed=" << sched.rejected.Value()
                  << " | epochs live=" << epoch.live.Value()
                  << " published=" << epoch.published.Value() << "\n";
      }
    });
  }

  // Writer thread: streams every batch through the update lane.
  std::vector<runtime::JobHandle> updates;
  updates.reserve(opt.batches);
  std::thread writer([&] {
    for (const stream::EdgeDelta& delta : deltas) {
      runtime::JobOptions options;
      options.tag = "ingest";
      updates.push_back(scheduler->SubmitUpdate(session, delta, options));
    }
  });

  // Tenant threads: tenant 0 is the urgent one under priority policy.
  std::vector<TenantStats> tenants(opt.tenants);
  std::vector<std::thread> tenant_threads;
  tenant_threads.reserve(opt.tenants);
  for (std::uint32_t t = 0; t < opt.tenants; ++t) {
    tenants[t].priority = t == 0 ? 10 : 0;
    tenants[t].outcomes.reserve(opt.queries);
    tenant_threads.emplace_back([&, t] {
      TenantStats& stats = tenants[t];
      for (std::uint32_t q = 0; q < opt.queries; ++q) {
        runtime::JobOptions options;
        options.priority = stats.priority;
        options.tag = "tenant-" + std::to_string(t);
        util::Timer timer;
        const runtime::JobHandle handle =
            scheduler->SubmitQuery(session, options);
        const runtime::JobOutcome outcome = handle.Wait();
        ++stats.issued;
        if (outcome.state == runtime::JobState::kDone) {
          stats.latency.Record(timer.ElapsedSeconds());
          ++stats.answered;
          if (outcome.query.coalesced) ++stats.coalesced;
          stats.outcomes.push_back(outcome);
        } else {
          ++stats.rejected;  // admission shed or shutdown race
        }
      }
    });
  }

  writer.join();
  for (std::thread& t : tenant_threads) t.join();
  for (const runtime::JobHandle& h : updates) (void)h.Wait();
  traffic_done.store(true, std::memory_order_relaxed);
  if (monitor.joinable()) monitor.join();
  scheduler->Shutdown();

  // Sequential replay oracle: epoch e -> exact triangle total. Only
  // admitted updates publish epochs (under --max-pending the writer
  // can be shed as well), so replay exactly the batches that ran, in
  // submission order.
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::uint64_t shed_updates = 0;
  {
    stream::IncrementalCounter replay(seed_graph);
    oracle[0] = replay.triangles();
    for (std::size_t b = 0; b < updates.size(); ++b) {
      const runtime::JobOutcome outcome = updates[b].Wait();
      if (outcome.state != runtime::JobState::kDone) {
        ++shed_updates;
        continue;
      }
      oracle[outcome.epoch] = replay.ApplyBatch(deltas[b]).triangles;
    }
  }

  std::uint64_t mismatches = 0;
  util::TablePrinter table({"Tenant", "Prio", "Issued", "Answered", "Shed",
                            "Coal", "p50", "p99", "Max"});
  for (std::uint32_t t = 0; t < opt.tenants; ++t) {
    const TenantStats& stats = tenants[t];
    for (const runtime::JobOutcome& outcome : stats.outcomes) {
      const auto it = oracle.find(outcome.query.epoch);
      if (it == oracle.end() || outcome.query.triangles != it->second) {
        ++mismatches;
      }
    }
    table.AddRow({std::to_string(t), std::to_string(stats.priority),
                  std::to_string(stats.issued),
                  std::to_string(stats.answered),
                  std::to_string(stats.rejected),
                  std::to_string(stats.coalesced),
                  util::FormatSeconds(stats.latency.Percentile(50.0)),
                  util::FormatSeconds(stats.latency.Percentile(99.0)),
                  util::FormatSeconds(stats.latency.max())});
  }
  table.Print(std::cout);

  const runtime::EpochManager& epochs = session->epochs();
  std::cout << "\n  epochs: " << epochs.published() << " published, "
            << epochs.live_epochs() << " live, " << epochs.retired()
            << " retired; scheduler: " << scheduler->coalesced()
            << " coalesced, " << scheduler->rejected() << " rejected ("
            << shed_updates << " update batches shed)\n";

  const bool final_ok =
      baseline::CountTrianglesReference(session->Snapshot()) ==
      session->triangles();
  std::cout << "  verification: " << mismatches
            << " query mismatches vs sequential replay; final state "
            << (final_ok ? "exact" : "WRONG") << " vs CPU baseline\n";

  // Final scrape of the whole registry — the catalog is documented in
  // docs/OBSERVABILITY.md; TouchServingMetrics keeps the dump complete
  // even for metric groups this run never exercised.
  runtime::TouchServingMetrics();
  std::cout << "\n  final metrics:\n";
  obs::Registry::Global().WriteText(std::cout);
  return (mismatches == 0 && final_ok) ? 0 : 1;
}
