// tcim_cli — run the full TCIM pipeline on any graph from the command
// line, with the paper's knobs exposed.
//
//   tcim_cli --input graph.txt
//   tcim_cli --dataset roadNet-PA --scale 0.1
//   tcim_cli --dataset com-dblp --slice-bits 128 --policy fifo
//            --capacity-mb 4 --orientation degree --json
//   tcim_cli --dataset com-dblp --banks 4 --partition degree
//   tcim_cli --dataset ego-facebook --stream updates.delta
//
// With --banks > 1 the run goes through the multi-bank runtime
// (runtime::BankPool): the graph is sharded across N parallel
// accelerators and the report gains the partition table plus the
// cluster-level latency views (critical path vs serial sum).
//
// With --stream FILE the loaded graph becomes the initial state of a
// runtime::StreamSession and FILE is replayed as edge-update batches
// ("+ u v" / "- u v" lines, "=" commits a batch — see
// src/stream/edge_delta.h); each batch is counted incrementally and
// the report shows the per-batch deltas and the stream aggregate.
//
// Prints a human-readable report by default, or a single JSON object
// with --json (for scripting sweeps).
#include <algorithm>
#include <charconv>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "baseline/cpu_tc.h"
#include "graph/relabel.h"
#include "bitmatrix/kernel_backend.h"
#include "core/accelerator.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "obs/metrics.h"
#include "runtime/bank_pool.h"
#include "runtime/metrics.h"
#include "runtime/partitioner.h"
#include "runtime/stream_session.h"
#include "stream/edge_delta.h"
#include "util/table.h"
#include "util/timer.h"
#include "util/units.h"

namespace {

using namespace tcim;

struct Options {
  std::string input;
  std::string dataset;
  double scale = 0.25;
  std::uint32_t slice_bits = 64;
  std::string policy = "lru";
  double capacity_mb = 16.0;
  std::string orientation = "upper";
  std::uint64_t seed = 42;
  std::uint32_t banks = 1;
  std::uint32_t threads = 0;
  std::string partition = "degree";
  std::string stream;
  double recount_fraction = 0.01;
  std::string relabel = "auto";
  std::uint32_t top = 0;
  bool json = false;
  bool metrics_json = false;
  bool verify = true;
};

void Usage() {
  std::cout <<
      "usage: tcim_cli [--input FILE | --dataset NAME] [options]\n"
      "  --input FILE        SNAP-style edge list\n"
      "  --dataset NAME      paper dataset stand-in (ego-facebook, "
      "email-enron,\n"
      "                      com-amazon, com-dblp, com-youtube, "
      "roadNet-PA/TX/CA, com-lj)\n"
      "  --scale X           synthesis scale in (0,1] (default 0.25)\n"
      "  --slice-bits N      |S| in [8,512], divides 512 (default 64)\n"
      "  --policy P          lru | fifo | random (default lru)\n"
      "  --capacity-mb X     computational array size (default 16)\n"
      "  --orientation O     upper | degree | full (default upper)\n"
      "  --seed N            synthesis seed (default 42)\n"
      "  --banks N           parallel TCIM banks; >1 uses the multi-bank "
      "runtime (default 1)\n"
      "  --threads N         worker threads driving the banks (default: one "
      "per bank,\n"
      "                      capped at the hardware concurrency)\n"
      "  --partition P       contiguous | degree (degree-balanced ranges, "
      "default) |\n"
      "                      2d (row x column tiles + replicated hub "
      "columns)\n"
      "  --stream FILE       replay FILE as edge-update batches against the\n"
      "                      loaded graph (incremental counting; '+ u v', "
      "'- u v',\n"
      "                      '=' commits a batch)\n"
      "  --recount-frac X    fall back to a full recount when a batch exceeds\n"
      "                      X * edges normalized ops (default 0.01)\n"
      "  --relabel R         auto (default) | degree | bfs | none — rename "
      "vertices\n"
      "                      before slicing (auto keeps whichever of "
      "identity/degree/\n"
      "                      bfs yields the fewest valid slices); all output "
      "stays in\n"
      "                      the original ids\n"
      "  --top N             report the N highest-degree vertices (original "
      "ids)\n"
      "  --json              machine-readable output\n"
      "  --metrics-json      append the obs registry scrape (scheduler/epoch/\n"
      "                      store/stream metrics) as one JSON object on its\n"
      "                      own line after the report\n"
      "  --no-verify         skip the CPU cross-check\n";
}

/// Parses the value of an unsigned integer flag strictly: decimal
/// digits only (no sign, no trailing junk) and within T's range — the
/// rule graph::ParseVertexIdToken applies to edge-list ids. A bad value
/// is reported with the flag and the token, never wrapped or truncated.
template <typename T>
bool ParseUnsignedFlag(const std::string& flag, std::string_view token,
                       T& out) {
  T value = 0;
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  const char* why = nullptr;
  if (token.empty() || token.front() == '-' || token.front() == '+') {
    why = "is not an unsigned decimal integer";
  } else if (ec == std::errc::result_out_of_range) {
    why = "is out of range";
  } else if (ec != std::errc{}) {
    why = "is not an unsigned decimal integer";
  } else if (ptr != last) {
    why = "has trailing junk";
  }
  if (why != nullptr) {
    std::cerr << "invalid value for " << flag << ": '" << token << "' "
              << why << "\n";
    return false;
  }
  out = value;
  return true;
}

bool Parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--input") {
      const char* v = next();
      if (!v) return false;
      opt.input = v;
    } else if (arg == "--dataset") {
      const char* v = next();
      if (!v) return false;
      opt.dataset = v;
    } else if (arg == "--scale") {
      const char* v = next();
      if (!v) return false;
      opt.scale = std::stod(v);
    } else if (arg == "--slice-bits") {
      const char* v = next();
      if (!v || !ParseUnsignedFlag(arg, v, opt.slice_bits)) return false;
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) return false;
      opt.policy = v;
    } else if (arg == "--capacity-mb") {
      const char* v = next();
      if (!v) return false;
      opt.capacity_mb = std::stod(v);
    } else if (arg == "--orientation") {
      const char* v = next();
      if (!v) return false;
      opt.orientation = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v || !ParseUnsignedFlag(arg, v, opt.seed)) return false;
    } else if (arg == "--banks") {
      const char* v = next();
      if (!v || !ParseUnsignedFlag(arg, v, opt.banks)) return false;
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v || !ParseUnsignedFlag(arg, v, opt.threads)) return false;
    } else if (arg == "--partition") {
      const char* v = next();
      if (!v) return false;
      opt.partition = v;
    } else if (arg == "--stream") {
      const char* v = next();
      if (!v) return false;
      opt.stream = v;
    } else if (arg == "--recount-frac") {
      const char* v = next();
      if (!v) return false;
      opt.recount_fraction = std::stod(v);
    } else if (arg == "--relabel") {
      const char* v = next();
      if (!v) return false;
      opt.relabel = v;
    } else if (arg == "--top") {
      const char* v = next();
      if (!v || !ParseUnsignedFlag(arg, v, opt.top)) return false;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--metrics-json") {
      opt.metrics_json = true;
    } else if (arg == "--no-verify") {
      opt.verify = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return false;
    }
  }
  return true;
}

/// One row of the --top per-vertex surface: a vertex named by its
/// ORIGINAL id (inverse relabel map applied) and its degree.
struct TopEntry {
  graph::VertexId vertex = 0;
  std::uint64_t degree = 0;
};

/// The N highest-degree vertices of `g`, named by original ids.
/// Ordered by (degree desc, original id asc) — the tie-break uses the
/// original id deliberately, so a relabeled and an unrelabeled run
/// emit identical lists (the round-trip check in tests/relabel_test).
std::vector<TopEntry> TopDegrees(const graph::Graph& g,
                                 const graph::VertexRelabeling* map,
                                 std::uint32_t n) {
  std::vector<TopEntry> all;
  all.reserve(g.num_vertices());
  for (graph::VertexId internal = 0; internal < g.num_vertices();
       ++internal) {
    const graph::VertexId original =
        map != nullptr ? map->ToOriginal(internal) : internal;
    all.push_back(TopEntry{original, g.Degree(internal)});
  }
  const std::size_t k = std::min<std::size_t>(n, all.size());
  std::partial_sort(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                    [](const TopEntry& a, const TopEntry& b) {
                      if (a.degree != b.degree) return a.degree > b.degree;
                      return a.vertex < b.vertex;
                    });
  all.resize(k);
  return all;
}

void EmitTopJson(std::ostream& os, const std::vector<TopEntry>& top) {
  os << ",\"top\":[";
  for (std::size_t i = 0; i < top.size(); ++i) {
    os << (i == 0 ? "" : ",") << "{\"vertex\":" << top[i].vertex
       << ",\"degree\":" << top[i].degree << "}";
  }
  os << "]";
}

void EmitTopRows(util::TablePrinter& t, const std::vector<TopEntry>& top) {
  for (std::size_t i = 0; i < top.size(); ++i) {
    t.AddRow({"top[" + std::to_string(i) + "]",
              "v" + std::to_string(top[i].vertex) + " deg " +
                  std::to_string(top[i].degree)});
  }
}

/// Report fields shared by the single-accelerator and multi-bank
/// paths; the path-specific middle is injected as a callback so new
/// common fields land in both outputs.
struct ReportCommon {
  const tcim::graph::Graph* g = nullptr;
  std::string source;
  std::uint64_t triangles = 0;
  double chip_energy_j = 0.0;
  double platform_energy_j = 0.0;
  double host_seconds = 0.0;
  bool verify_requested = true;
  bool verified = true;
  std::string relabel = "none";
  double relabel_nvs_ratio = 1.0;
  std::vector<TopEntry> top;
};

template <typename JsonMiddle, typename TableMiddle>
int EmitReport(bool json, const ReportCommon& c, JsonMiddle&& json_middle,
               TableMiddle&& table_middle) {
  if (json) {
    std::cout << "{\"source\":\"" << c.source
              << "\",\"vertices\":" << c.g->num_vertices()
              << ",\"edges\":" << c.g->num_edges()
              << ",\"triangles\":" << c.triangles
              << ",\"relabel\":\"" << c.relabel << "\""
              << ",\"relabel_nvs_ratio\":" << c.relabel_nvs_ratio;
    if (!c.top.empty()) EmitTopJson(std::cout, c.top);
    json_middle(std::cout);
    std::cout << ",\"chip_energy_j\":" << c.chip_energy_j
              << ",\"platform_energy_j\":" << c.platform_energy_j
              << ",\"host_seconds\":" << c.host_seconds
              << ",\"kernel\":\""
              << tcim::bit::ToString(tcim::bit::ActiveBackend())
              << "\",\"verified\":" << (c.verified ? "true" : "false")
              << "}\n";
  } else {
    using tcim::util::TablePrinter;
    TablePrinter t({"Quantity", "Value"});
    t.AddRow({"source", c.source});
    t.AddRow({"vertices", TablePrinter::WithThousands(c.g->num_vertices())});
    t.AddRow({"edges", TablePrinter::WithThousands(c.g->num_edges())});
    t.AddRow({"triangles", TablePrinter::WithThousands(c.triangles)});
    t.AddRow({"relabel", c.relabel});
    t.AddRow({"relabel NVS ratio",
              TablePrinter::Ratio(c.relabel_nvs_ratio, 3)});
    EmitTopRows(t, c.top);
    table_middle(t);
    t.AddRow({"chip energy", tcim::util::FormatJoules(c.chip_energy_j)});
    t.AddRow({"platform energy",
              tcim::util::FormatJoules(c.platform_energy_j)});
    t.AddRow({"host wall-clock", tcim::util::FormatSeconds(c.host_seconds)});
    t.AddRow({"host kernel backend",
              tcim::bit::ToString(tcim::bit::ActiveBackend())});
    t.AddRow({"verified vs CPU", c.verify_requested
                                     ? (c.verified ? "yes" : "MISMATCH")
                                     : "skipped"});
    t.Print(std::cout);
  }
  return c.verified ? 0 : 1;
}

/// Shared tail of every successful run path: under --metrics-json,
/// scrape the process-wide obs registry to stdout as one JSON line.
/// TouchServingMetrics() first, so paths that never built a Scheduler
/// or StreamSession still report the full catalog (zero-valued).
int Finish(const Options& opt, int rc) {
  if (opt.metrics_json) {
    runtime::TouchServingMetrics();
    obs::Registry::Global().WriteJson(std::cout);
    std::cout << "\n";
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!Parse(argc, argv, opt)) {
    Usage();
    return 2;
  }

  graph::Graph g;
  std::string source;
  try {
    if (!opt.input.empty()) {
      g = graph::ReadSnapEdgeListFile(opt.input);
      source = opt.input;
    } else if (!opt.dataset.empty()) {
      const graph::PaperRef& ref = graph::GetPaperRefByName(opt.dataset);
      graph::DatasetInstance inst =
          graph::SynthesizePaperGraph(ref.id, opt.scale, opt.seed);
      g = std::move(inst.graph);
      source = inst.source;
    } else {
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  // Load-time relabeling: rename vertices so dense rows/columns share
  // contiguous id blocks before slicing — fewer valid slices, smaller
  // |Ri ∩ Cj| merges. Pure bijection; every id printed below goes back
  // through the inverse map, so the rename is invisible in the output.
  const std::optional<graph::RelabelMode> relabel_mode =
      graph::ParseRelabelMode(opt.relabel);
  if (!relabel_mode.has_value()) {
    std::cerr << "unknown relabel mode " << opt.relabel
              << " (auto|degree|bfs|none)\n";
    return 2;
  }
  graph::RelabelChoice relabel =
      graph::ChooseRelabeling(g, *relabel_mode, opt.slice_bits);
  const bool relabeled = relabel.applied != graph::RelabelMode::kNone;
  if (relabeled) g = relabel.map.Apply(g);
  graph::VertexRelabeling& id_map = relabel.map;
  const graph::VertexRelabeling* inverse = relabeled ? &id_map : nullptr;
  const std::string relabel_desc =
      std::string(graph::ToString(relabel.applied)) +
      (*relabel_mode == graph::RelabelMode::kAuto ? " (auto)" : "");

  core::TcimConfig config;
  config.slice_bits = opt.slice_bits;
  config.array.capacity_bytes =
      static_cast<std::uint64_t>(opt.capacity_mb * 1024.0 * 1024.0);
  if (opt.policy == "lru") {
    config.controller.policy = arch::ReplacementPolicy::kLru;
  } else if (opt.policy == "fifo") {
    config.controller.policy = arch::ReplacementPolicy::kFifo;
  } else if (opt.policy == "random") {
    config.controller.policy = arch::ReplacementPolicy::kRandom;
  } else {
    std::cerr << "unknown policy " << opt.policy << "\n";
    return 2;
  }
  if (opt.orientation == "upper") {
    config.orientation = graph::Orientation::kUpper;
  } else if (opt.orientation == "degree") {
    config.orientation = graph::Orientation::kDegree;
  } else if (opt.orientation == "full") {
    config.orientation = graph::Orientation::kFullSymmetric;
  } else {
    std::cerr << "unknown orientation " << opt.orientation << "\n";
    return 2;
  }

  // Validated even when --banks is 1, so a typo'd strategy errors on
  // every row of a bank sweep, not only the multi-bank ones.
  runtime::PartitionStrategy partition_strategy;
  try {
    partition_strategy = runtime::ParsePartitionStrategy(opt.partition);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  if (!opt.stream.empty()) {
    std::vector<stream::EdgeDelta> batches;
    try {
      batches = stream::ReadDeltaFile(opt.stream);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    stream::StreamConfig stream_config;
    stream_config.orientation = config.orientation;
    stream_config.slice_bits = opt.slice_bits;
    stream_config.recount_fraction = opt.recount_fraction;
    runtime::StreamSession session(g, stream_config);
    const std::uint64_t initial = session.triangles();

    util::TablePrinter batch_table({"Batch", "Epoch", "Ops", "+E", "-E", "ΔT",
                                    "Triangles", "Path", "AND ops",
                                    "Latency"});
    for (std::size_t b = 0; b < batches.size(); ++b) {
      // Replay files speak original ids; the relabeled session speaks
      // internal ids. MapToInternal grows id_map for vertices the
      // loaded graph never saw (same growth semantics as the
      // un-relabeled path).
      const runtime::StreamSession::AppliedBatch applied = session.Apply(
          relabeled ? stream::MapToInternal(batches[b], id_map)
                    : batches[b]);
      const stream::BatchResult& r = applied.batch;
      if (!opt.json) {
        batch_table.AddRow(
            {std::to_string(b), std::to_string(applied.epoch),
             std::to_string(r.stats.ops_submitted),
             std::to_string(r.stats.applied.inserted),
             std::to_string(r.stats.applied.deleted),
             std::to_string(r.delta),
             util::TablePrinter::WithThousands(r.triangles),
             r.stats.used_recount ? "recount" : "incremental",
             util::TablePrinter::WithThousands(r.stats.and_ops),
             util::FormatSeconds(r.stats.host_seconds)});
      }
    }

    const runtime::StreamStats stats = session.stats();
    const std::uint64_t final_triangles = session.triangles();
    const graph::Graph final_snapshot = session.Snapshot();
    const bool verified =
        !opt.verify || baseline::CountTrianglesReference(final_snapshot) ==
                           final_triangles;
    const std::vector<TopEntry> top =
        opt.top > 0 ? TopDegrees(final_snapshot, inverse, opt.top)
                    : std::vector<TopEntry>{};
    if (opt.json) {
      std::cout << "{\"source\":\"" << source << "\",\"stream\":\""
                << opt.stream << "\",\"relabel\":\"" << relabel_desc
                << "\",\"relabel_nvs_ratio\":" << relabel.ValidSliceRatio();
      if (!top.empty()) EmitTopJson(std::cout, top);
      std::cout << ",\"batches\":" << stats.batches
                << ",\"initial_triangles\":" << initial
                << ",\"final_triangles\":" << final_triangles
                << ",\"net_delta\":" << stats.net_delta
                << ",\"edges_inserted\":" << stats.edges_inserted
                << ",\"edges_deleted\":" << stats.edges_deleted
                << ",\"ops_dropped\":" << stats.ops_dropped
                << ",\"and_ops\":" << stats.exec.valid_pairs
                << ",\"recounts\":" << stats.recounts
                << ",\"host_seconds\":" << stats.host_seconds
                << ",\"verified\":" << (verified ? "true" : "false") << "}\n";
    } else {
      std::cout << "Streaming replay of " << opt.stream << " over " << source
                << " (" << g.num_vertices() << " V, " << g.num_edges()
                << " E, " << util::TablePrinter::WithThousands(initial)
                << " triangles initially)\n\n";
      batch_table.Print(std::cout);
      std::cout << "\n  " << stats.Summary() << "\n"
                << "  verified vs CPU recount: "
                << (opt.verify ? (verified ? "yes" : "MISMATCH") : "skipped")
                << "\n";
      if (!top.empty()) {
        std::cout << "\n  top vertices by degree (original ids):\n";
        for (std::size_t i = 0; i < top.size(); ++i) {
          std::cout << "    top[" << i << "] v" << top[i].vertex << " deg "
                    << top[i].degree << "\n";
        }
      }
    }
    return Finish(opt, verified ? 0 : 1);
  }

  if (opt.banks > 1) {
    runtime::BankPoolConfig pool_config;
    pool_config.num_banks = opt.banks;
    pool_config.num_threads = opt.threads;
    pool_config.partition = partition_strategy;
    // Controller rng seed stays at its default on both paths, so under
    // --policy random bank 0 reproduces the single-accelerator numbers
    // (DeriveBankSeed keeps the base seed for bank 0).
    pool_config.accelerator = config;
    runtime::ClusterResult r;
    try {
      const runtime::BankPool pool{pool_config};
      r = pool.Count(g);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }

    ReportCommon common{&g,
                        source,
                        r.triangles,
                        r.energy_joules,
                        r.platform_joules,
                        r.host_seconds,
                        opt.verify,
                        !opt.verify ||
                            baseline::CountTrianglesReference(g) ==
                                r.triangles};
    common.relabel = relabel_desc;
    common.relabel_nvs_ratio = relabel.ValidSliceRatio();
    if (opt.top > 0) common.top = TopDegrees(g, inverse, opt.top);
    if (!opt.json) {
      runtime::PrintPartitionTable(std::cout, r.partition);
      std::cout << "\n";
    }
    return Finish(opt, EmitReport(
        opt.json, common,
        [&](std::ostream& os) {
          os << ",\"banks\":" << r.num_banks() << ",\"partition\":\""
             << runtime::ToString(r.partition.stats.strategy) << "\""
             << ",\"edge_cut\":" << r.partition.stats.EdgeCutFraction()
             << ",\"load_imbalance\":" << r.partition.stats.LoadImbalance()
             << ",\"and_ops\":" << r.exec.valid_pairs
             << ",\"hit_rate\":" << r.exec.cache.HitRate()
             << ",\"critical_path_seconds\":" << r.critical_path_seconds
             << ",\"serial_sum_seconds\":" << r.serial_sum_seconds
             << ",\"bank_speedup\":" << r.Speedup();
          if (r.partition.stats.strategy ==
              runtime::PartitionStrategy::k2dHubReplicated) {
            os << ",\"hub_count\":" << r.partition.stats.hub_count
               << ",\"replica_overhead\":" << r.partition.stats.ReplicaOverhead()
               << ",\"tile_imbalance\":" << r.partition.stats.tile_imbalance;
          }
        },
        [&](util::TablePrinter& t) {
          using util::TablePrinter;
          t.AddRow({"banks", std::to_string(r.num_banks())});
          if (r.partition.stats.strategy ==
              runtime::PartitionStrategy::k2dHubReplicated) {
            t.AddRow({"hub columns",
                      std::to_string(r.partition.stats.hub_count)});
            t.AddRow({"replica overhead",
                      TablePrinter::Percent(
                          r.partition.stats.ReplicaOverhead(), 1)});
            t.AddRow({"tile imbalance",
                      TablePrinter::Ratio(r.partition.stats.tile_imbalance,
                                          2)});
          }
          t.AddRow(
              {"AND ops", TablePrinter::WithThousands(r.exec.valid_pairs)});
          t.AddRow(
              {"hit rate", TablePrinter::Percent(r.exec.cache.HitRate(), 1)});
          t.AddRow({"cluster latency (critical path)",
                    util::FormatSeconds(r.critical_path_seconds)});
          t.AddRow({"cluster latency (serial sum)",
                    util::FormatSeconds(r.serial_sum_seconds)});
          t.AddRow({"bank speedup", TablePrinter::Ratio(r.Speedup(), 2)});
        }));
  }

  const core::TcimAccelerator accel{config};
  const core::TcimResult r = accel.Run(g);

  ReportCommon common{&g,
                      source,
                      r.triangles,
                      r.perf.energy_joules,
                      r.perf.platform_joules,
                      r.host_seconds,
                      opt.verify,
                      !opt.verify || baseline::CountTrianglesReference(g) ==
                                         r.triangles};
  common.relabel = relabel_desc;
  common.relabel_nvs_ratio = relabel.ValidSliceRatio();
  if (opt.top > 0) common.top = TopDegrees(g, inverse, opt.top);
  return Finish(opt, EmitReport(
      opt.json, common,
      [&](std::ostream& os) {
        os << ",\"and_ops\":" << r.exec.valid_pairs
           << ",\"row_writes\":" << r.exec.row_slice_writes
           << ",\"col_writes\":" << r.exec.col_slice_writes
           << ",\"hit_rate\":" << r.exec.cache.HitRate()
           << ",\"exchange_rate\":" << r.exec.cache.ExchangeRate()
           << ",\"serial_seconds\":" << r.perf.serial_seconds
           << ",\"parallel_seconds\":" << r.perf.parallel_seconds;
      },
      [&](util::TablePrinter& t) {
        using util::TablePrinter;
        t.AddRow({"AND ops", TablePrinter::WithThousands(r.exec.valid_pairs)});
        t.AddRow(
            {"hit rate", TablePrinter::Percent(r.exec.cache.HitRate(), 1)});
        t.AddRow(
            {"exchanges", TablePrinter::WithThousands(r.exec.cache.exchanges)});
        t.AddRow({"TCIM latency (serial)",
                  util::FormatSeconds(r.perf.serial_seconds)});
        t.AddRow({"TCIM latency (parallel)",
                  util::FormatSeconds(r.perf.parallel_seconds)});
      }));
}
