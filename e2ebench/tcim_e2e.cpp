// tcim_e2e — the workload runner behind e2ebench/run.py.
//
// Three subcommands. The first writes the inputs, the other two run a
// workload on them, so the code under test only ever reads generated
// files:
//
//   tcim_e2e synth --dataset NAME --scale X --seed N --out DIR
//                  [--serving 1]
//       DIR/graph.txt      SNAP edge list of the dataset stand-in; with
//                          --serving 1 less 2% of its edges, which go to
//       DIR/held_out.txt   and feed the writer's update stream (Churn)
//
//   tcim_e2e offline --dir DIR --seconds T --trace 0|1
//       Repeats the whole offline pipeline (SNAP file -> load -> relabel
//       auto -> slice build -> host count -> simulate -> slice stats ->
//       perf model -> verify) until T seconds are spent. Every stage is
//       a call into the library's public API wrapped in an
//       obs::TraceSpan "pipeline.<stage>". With --trace 1 a second
//       T-second phase runs under tracing, captured to DIR/trace.json.
//
//   tcim_e2e serve --dir DIR --seed N --seconds T --trace 0|1
//                  --min-queries M
//       Loads the graph into a StreamSession behind a Scheduler, then
//       one writer submits 64-op update batches (SubmitUpdate, waiting
//       for each) while two clients run closed query loops (SubmitQuery,
//       waiting for each), for T seconds and until M queries were
//       answered (3T at most). With --trace 1 a second, fresh session
//       runs the same traffic under tracing.
//
// The last stdout line of offline/serve is one JSON object of raw
// samples and counters; run.py reduces it to the benchmark metrics.
// Correctness is checked here, against oracles the measured code does
// not share: every offline run must agree on host, simulated and CPU
// reference counts and reproduce the first run's simulated counters
// exactly; every serving answer must match a sequential
// stream::IncrementalCounter replay at the epoch it names, and each
// final state the CPU reference.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/controller.h"
#include "baseline/cpu_tc.h"
#include "bitmatrix/kernel_backend.h"
#include "core/accelerator.h"
#include "core/bitwise_tc.h"
#include "core/perf_model.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "graph/relabel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pim/computational_array.h"
#include "runtime/metrics.h"
#include "runtime/scheduler.h"
#include "runtime/stream_session.h"
#include "stream/edge_delta.h"
#include "stream/incremental_counter.h"
#include "util/rng.h"
#include "util/timer.h"

#ifndef TCIM_E2E_BUILD_TYPE
#define TCIM_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tcim;

constexpr std::uint32_t kSliceBits = 64;
constexpr graph::Orientation kOrientation = graph::Orientation::kUpper;
constexpr std::size_t kBatchOps = 64;
// Set-up is repeated this many times per serving run so run.py can
// report its median.
constexpr int kServingSetups = 11;
// Fewest offline pipeline runs per measured phase, however long a run
// takes: the reported figure is their median.
constexpr int kMinOfflineRuns = 3;
// Closed query loops beside the writer in a serving run.
constexpr int kQueryClients = 2;
// A serving window stretches past --seconds until enough queries were
// answered for their p99, but never beyond this factor.
constexpr double kMaxWindowStretch = 3.0;

struct Args {
  std::string mode;
  std::map<std::string, std::string> flags;

  [[nodiscard]] std::string Get(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::string Get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args Parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing subcommand");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument " + key);
    }
    args.flags[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Build facts every result is stamped with (run.py adds the workload,
// scale and seed).
std::string MetaJson() {
  const obs::RunMetadata meta = obs::CollectRunMetadata();
  return "{\"date\":\"" + meta.date + "\",\"compiler\":\"" +
         obs::JsonEscape(meta.compiler) + "\",\"build_type\":\"" +
         TCIM_E2E_BUILD_TYPE + "\",\"kernel\":\"" +
         bit::ToString(bit::ActiveBackend()) + "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) + "}";
}

bool IsOptimizedBuild() {
#ifdef NDEBUG
  return std::string(TCIM_E2E_BUILD_TYPE) != "Debug";
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// synth
// ---------------------------------------------------------------------------

using Edge = std::pair<graph::VertexId, graph::VertexId>;

// Share of the stand-in's edges held out of the loaded graph for the
// serving workload; the writer's inserts come from this pool.
constexpr double kHeldOutFraction = 0.02;

// The serving workload's update stream, a steady churn: each batch
// erases kBatchOps/2 random live edges, which join the back of the
// held-out queue, then inserts as many from its front. Edge count and
// structure stay put however many batches a run gets through, so a
// faster writer does not change its own input, and no op is ever
// dropped as a duplicate or an absent delete. The sequence depends only
// on (graph, held-out edges, seed), so the oracle can replay it.
class Churn {
 public:
  Churn(const graph::Graph& g, const std::vector<Edge>& held_out,
        std::uint64_t seed)
      : rng_(seed ^ 0xE2EBE7C4ULL),
        held_out_(held_out.begin(), held_out.end()) {
    if (held_out_.size() < kBatchOps) {
      throw std::invalid_argument("too few held-out edges for a batch");
    }
    live_.reserve(g.num_edges());
    g.ForEachEdge([&](graph::VertexId u, graph::VertexId v) {
      live_.emplace_back(u, v);
    });
  }

  [[nodiscard]] stream::EdgeDelta Next() {
    stream::EdgeDelta batch;
    batch.ops.reserve(kBatchOps);
    for (std::size_t k = 0; k < kBatchOps / 2; ++k) {
      const std::size_t pick = rng_() % live_.size();
      batch.Erase(live_[pick].first, live_[pick].second);
      held_out_.push_back(live_[pick]);
      live_[pick] = live_.back();
      live_.pop_back();
    }
    for (std::size_t k = 0; k < kBatchOps / 2; ++k) {
      batch.Insert(held_out_.front().first, held_out_.front().second);
      live_.push_back(held_out_.front());
      held_out_.pop_front();
    }
    return batch;
  }

 private:
  util::Xoshiro256 rng_;
  std::vector<Edge> live_;
  std::deque<Edge> held_out_;
};

void WriteGraph(const graph::Graph& g, const std::filesystem::path& path) {
  std::ofstream file(path);
  graph::WriteSnapEdgeList(g, file);
  if (!file) throw std::runtime_error("cannot write " + path.string());
}

// Writes the stand-in minus kHeldOutFraction of its edges to graph.txt
// and those edges, one "u v" line each, to held_out.txt.
void WriteServingInput(const graph::Graph& g, std::uint64_t seed,
                       const std::filesystem::path& out) {
  // Number the vertices as the SNAP reader will (isolated ones vanish).
  std::stringstream text;
  graph::WriteSnapEdgeList(g, text);
  const graph::Graph full = graph::ReadSnapEdgeList(text);
  std::vector<Edge> live;
  live.reserve(full.num_edges());
  std::vector<std::uint64_t> degree(full.num_vertices());
  full.ForEachEdge([&](graph::VertexId u, graph::VertexId v) {
    live.emplace_back(u, v);
    ++degree[u];
    ++degree[v];
  });
  // Hold out only edges whose endpoints keep another one, so the loaded
  // graph numbers its vertices exactly as `full` does.
  util::Xoshiro256 rng(seed ^ 0x4E1D0077ULL);
  const auto target = static_cast<std::size_t>(
      static_cast<double>(live.size()) * kHeldOutFraction);
  std::vector<Edge> held_out;
  for (std::size_t tries = 0; held_out.size() < target && tries < 8 * target;
       ++tries) {
    const std::size_t pick = rng() % live.size();
    const auto [u, v] = live[pick];
    if (degree[u] < 2 || degree[v] < 2) continue;
    --degree[u];
    --degree[v];
    held_out.push_back(live[pick]);
    live[pick] = live.back();
    live.pop_back();
  }
  graph::GraphBuilder builder(full.num_vertices());
  builder.ReserveEdges(live.size());
  for (const auto& [u, v] : live) builder.AddEdge(u, v);
  WriteGraph(std::move(builder).Build(), out / "graph.txt");
  std::ofstream file(out / "held_out.txt");
  for (const auto& [u, v] : held_out) file << u << ' ' << v << '\n';
  if (!file) throw std::runtime_error("cannot write held_out.txt");
}

std::vector<Edge> ReadHeldOut(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::vector<Edge> edges;
  Edge e;
  while (in >> e.first >> e.second) edges.push_back(e);
  if (!in.eof()) throw std::runtime_error("bad line in " + path.string());
  return edges;
}

int Synth(const Args& args) {
  const std::filesystem::path out = args.Get("out");
  std::filesystem::create_directories(out);
  const std::uint64_t seed = std::stoull(args.Get("seed"));
  const graph::PaperRef& ref = graph::GetPaperRefByName(args.Get("dataset"));
  const graph::Graph g =
      graph::SynthesizePaperGraph(ref.id, std::stod(args.Get("scale")), seed)
          .graph;
  if (args.Get("serving", "0") == "1") {
    WriteServingInput(g, seed, out);
  } else {
    WriteGraph(g, out / "graph.txt");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// offline
// ---------------------------------------------------------------------------

// Every simulated count the architecture model produces for one run.
// A change that only speeds up the host must leave all of it identical.
struct Fingerprint {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t exchanges = 0;
  std::uint64_t row_slice_writes = 0;
  std::uint64_t col_slice_writes = 0;
  std::uint64_t and_ops = 0;
  std::uint64_t bitcount_words = 0;
  std::uint64_t valid_slices = 0;
  double tcim_latency_s = 0.0;
  double tcim_energy_j = 0.0;

  bool operator==(const Fingerprint&) const = default;

  [[nodiscard]] std::string Json() const {
    return "{\"cache_hits\":" + std::to_string(cache_hits) +
           ",\"cache_misses\":" + std::to_string(cache_misses) +
           ",\"exchanges\":" + std::to_string(exchanges) +
           ",\"row_slice_writes\":" + std::to_string(row_slice_writes) +
           ",\"col_slice_writes\":" + std::to_string(col_slice_writes) +
           ",\"and_ops\":" + std::to_string(and_ops) +
           ",\"bitcount_words\":" + std::to_string(bitcount_words) +
           ",\"valid_slices\":" + std::to_string(valid_slices) +
           ",\"tcim_latency_s\":" + Num(tcim_latency_s) +
           ",\"tcim_energy_j\":" + Num(tcim_energy_j) + "}";
  }
};

struct PipelineRun {
  double run_s = 0.0;
  double setup_s = 0.0;  // load + relabel + slice build
  std::uint64_t host = 0;
  std::uint64_t simulated = 0;
  std::uint64_t reference = 0;
  graph::RelabelMode relabel = graph::RelabelMode::kNone;
  double relabel_nvs_ratio = 1.0;
  std::uint64_t valid_pairs = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t max_subarray_ands = 0;
  Fingerprint fingerprint;
};

// One span per stage call; the "run" argument ties the stages of one
// pipeline run together in the trace.
class StageSpan {
 public:
  StageSpan(const char* name, int run)
      : span_(name, "pipeline", "\"run\":" + std::to_string(run)) {}

 private:
  obs::TraceSpan span_;
};

core::TcimConfig PipelineConfig() {
  core::TcimConfig config;  // |S|=64, LRU, 16 MB array, kUpper
  config.slice_bits = kSliceBits;
  config.orientation = kOrientation;
  config.Normalize();
  return config;
}

PipelineRun RunPipeline(const std::string& graph_path, int run) {
  const core::TcimConfig config = PipelineConfig();
  PipelineRun r;
  const util::Timer clock;
  {
    StageSpan whole("pipeline.run", run);
    graph::Graph g;
    {
      StageSpan span("pipeline.load", run);
      g = graph::ReadSnapEdgeListFile(graph_path);
    }
    graph::RelabelChoice relabel;
    {
      StageSpan span("pipeline.relabel_choose", run);
      relabel = graph::ChooseRelabeling(g, graph::RelabelMode::kAuto,
                                        kSliceBits);
    }
    {
      StageSpan span("pipeline.relabel_apply", run);
      if (relabel.applied != graph::RelabelMode::kNone) {
        g = relabel.map.Apply(g);
      }
    }
    r.relabel = relabel.applied;
    r.relabel_nvs_ratio = relabel.ValidSliceRatio();
    bit::SlicedMatrix matrix = [&] {
      StageSpan span("pipeline.slice_build", run);
      return core::BuildSlicedMatrix(g, kOrientation, kSliceBits);
    }();
    r.setup_s = clock.ElapsedSeconds();
    {
      StageSpan span("pipeline.host_count", run);
      r.host = core::CountTrianglesSliced(matrix, kOrientation);
    }
    arch::ExecStats exec;
    {
      StageSpan span("pipeline.simulate", run);
      pim::ComputationalArray array(config.array, config.bit_counter);
      arch::Controller controller(array, config.controller);
      exec = controller.RunRows(matrix, 0, matrix.num_vertices());
    }
    r.simulated =
        exec.accumulated_bitcount / graph::CountMultiplier(kOrientation);
    bit::SliceStats slices;
    {
      StageSpan span("pipeline.slice_stats", run);
      slices = matrix.ComputeStats();
    }
    core::PerfResult perf;
    {
      // The accelerator characterizes the device and array (device,
      // nvsim); the model prices the simulated counts with them.
      StageSpan span("pipeline.perf_model", run);
      const core::TcimAccelerator accel{config};
      perf = core::EvaluatePerf(exec, accel.array_perf(),
                                accel.config().bit_counter,
                                accel.config().perf);
    }
    {
      StageSpan span("pipeline.verify", run);
      r.reference = baseline::CountTrianglesReference(g);
    }
    r.valid_pairs = slices.valid_pairs;
    r.cache_lookups = exec.cache.lookups;
    for (const std::uint64_t ands : exec.per_subarray_ands) {
      r.max_subarray_ands = std::max(r.max_subarray_ands, ands);
    }
    Fingerprint& fp = r.fingerprint;
    fp.cache_hits = exec.cache.hits;
    fp.cache_misses = exec.cache.misses;
    fp.exchanges = exec.cache.exchanges;
    fp.row_slice_writes = exec.row_slice_writes;
    fp.col_slice_writes = exec.col_slice_writes;
    fp.and_ops = exec.valid_pairs;
    fp.bitcount_words = exec.bitcount_words;
    fp.valid_slices = slices.row_valid_slices + slices.col_valid_slices;
    fp.tcim_latency_s = perf.parallel_seconds;
    fp.tcim_energy_j = perf.energy_joules;
  }
  r.run_s = clock.ElapsedSeconds();
  return r;
}

// Runs pipelines until `seconds` have passed (and at least
// kMinOfflineRuns ran). Returns the number of failed runs; a run fails
// when its three counts disagree or its simulated counters differ from
// `golden` (set by the first run of the process).
int OfflinePhase(const std::string& graph_path, double seconds,
                 std::vector<PipelineRun>& runs,
                 std::optional<Fingerprint>& golden) {
  int failed = 0;
  const util::Timer phase;
  while (phase.ElapsedSeconds() < seconds ||
         static_cast<int>(runs.size()) < kMinOfflineRuns) {
    PipelineRun r = RunPipeline(graph_path, static_cast<int>(runs.size()));
    if (!golden.has_value()) golden = r.fingerprint;
    const bool counts_agree =
        r.host == r.reference && r.simulated == r.reference;
    if (!counts_agree) {
      std::cerr << "MISMATCH run " << runs.size() << ": host " << r.host
                << ", simulated " << r.simulated << ", reference "
                << r.reference << "\n";
    }
    if (!(r.fingerprint == *golden)) {
      std::cerr << "NONDETERMINISM run " << runs.size() << ": "
                << r.fingerprint.Json() << " != " << golden->Json() << "\n";
    }
    if (!counts_agree || !(r.fingerprint == *golden)) ++failed;
    runs.push_back(r);
  }
  return failed;
}

std::string RunsJson(const std::vector<PipelineRun>& runs) {
  std::vector<double> run_s;
  std::vector<double> setup_s;
  for (const PipelineRun& r : runs) {
    run_s.push_back(r.run_s);
    setup_s.push_back(r.setup_s);
  }
  return "{\"run_s\":" + Array(run_s) + ",\"setup_s\":" + Array(setup_s) +
         "}";
}

int Offline(const Args& args) {
  const std::filesystem::path dir = args.Get("dir");
  const std::string graph_path = (dir / "graph.txt").string();
  const double seconds = std::stod(args.Get("seconds"));
  const bool trace = args.Get("trace") == "1";

  std::optional<Fingerprint> golden;
  std::vector<PipelineRun> untraced;
  std::vector<PipelineRun> traced;
  int failed = OfflinePhase(graph_path, seconds, untraced, golden);
  const double peak_rss_mb = PeakRssMb();
  std::string baselines;
  if (trace) {
    obs::StartTracing((dir / "trace.json").string());
    failed += OfflinePhase(graph_path, seconds, traced, golden);
    obs::StopTracing();
    // Reference lines outside run_s: the CPU mark and forward
    // algorithms on the graph the pipeline counted (relabeled).
    graph::Graph g = graph::ReadSnapEdgeListFile(graph_path);
    const graph::RelabelChoice relabel =
        graph::ChooseRelabeling(g, graph::RelabelMode::kAuto, kSliceBits);
    if (relabel.applied != graph::RelabelMode::kNone) {
      g = relabel.map.Apply(g);
    }
    std::uint64_t mark = 0;
    std::uint64_t forward = 0;
    const double mark_s = util::TimeOnce([&] {
      mark = baseline::CountTriangles(
          g, baseline::TcAlgorithm::kEdgeIteratorMark);
    });
    const double forward_s = util::TimeOnce([&] {
      forward = baseline::CountTriangles(g, baseline::TcAlgorithm::kForward);
    });
    const std::uint64_t reference = untraced.front().reference;
    if (mark != reference || forward != reference) {
      std::cerr << "MISMATCH baselines: mark " << mark << ", forward "
                << forward << ", reference " << reference << "\n";
      ++failed;
    }
    baselines = ",\"mark_s\":" + Num(mark_s) + ",\"forward_s\":" +
                Num(forward_s);
  }

  const PipelineRun& first = untraced.front();
  std::cout << "offline: " << untraced.size() << " untraced + "
            << traced.size() << " traced runs, " << first.reference
            << " triangles, relabel " << graph::ToString(first.relabel)
            << "\n";
  std::cout << "fingerprint " << golden->Json() << "\n";
  std::cout << "{\"mode\":\"offline\",\"meta\":" << MetaJson()
            << ",\"attempted\":" << untraced.size() + traced.size()
            << ",\"failed\":" << failed << ",\"peak_rss_mb\":"
            << Num(peak_rss_mb) << ",\"untraced\":" << RunsJson(untraced)
            << ",\"traced\":" << RunsJson(traced)
            << ",\"fingerprint\":" << golden->Json()
            << ",\"relabel\":\"" << graph::ToString(first.relabel)
            << "\",\"relabel_nvs_ratio\":" << Num(first.relabel_nvs_ratio)
            << ",\"valid_pairs\":" << first.valid_pairs
            << ",\"cache_lookups\":" << first.cache_lookups
            << ",\"max_subarray_ands\":" << first.max_subarray_ands
            << baselines << "}\n";
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

runtime::SchedulerConfig ServingConfig() {
  runtime::SchedulerConfig config;
  config.dispatch_threads = 2;
  config.pool.num_banks = 4;
  config.pool.partition = runtime::PartitionStrategy::k2dHubReplicated;
  // Three workers drive the four banks, so a query's bank work and the
  // writer's batch fit four cores side by side. With a worker per bank
  // the threads outnumber the cores, and the query p50 of identical
  // runs wandered three times as far.
  config.pool.num_threads = 3;
  return config;
}

struct Serving {
  std::shared_ptr<runtime::StreamSession> session;
  std::unique_ptr<runtime::Scheduler> scheduler;
};

// What one request reported, kept small: a run holds tens of thousands.
struct Sample {
  double latency_ms = 0.0;  // submit -> completion, seen by the client
  double done_s = 0.0;      // completion, in seconds since the window opened
  double wait_ms = 0.0;     // JobOutcome::queue_seconds
  double service_ms = 0.0;  // JobOutcome::run_seconds
  runtime::JobState state = runtime::JobState::kCancelled;
  std::uint64_t epoch = 0;
  std::uint64_t triangles = 0;
  // Updates: BatchStats. Queries: only `coalesced`.
  double busy_ms = 0.0;
  std::uint64_t and_ops = 0;
  std::uint64_t ops = 0;
  std::uint64_t dropped = 0;
  bool recount = false;
  bool coalesced = false;
};

Sample MakeSample(double latency_ms, double done_s,
                  const runtime::JobOutcome& o) {
  Sample s;
  s.latency_ms = latency_ms;
  s.done_s = done_s;
  s.wait_ms = o.queue_seconds * 1e3;
  s.service_ms = o.run_seconds * 1e3;
  s.state = o.state;
  s.epoch = o.epoch;
  if (o.kind == runtime::JobKind::kUpdate) {
    const stream::BatchStats& st = o.update.stats;
    s.triangles = o.update.triangles;
    s.busy_ms = st.host_seconds * 1e3;
    s.and_ops = st.and_ops;
    s.ops = st.ops_submitted;
    s.dropped = st.ops_dropped;
    s.recount = st.used_recount;
  } else {
    s.triangles = o.query.triangles;
    s.coalesced = o.query.coalesced;
  }
  return s;
}

struct ServingPhase {
  std::vector<Sample> updates;
  std::vector<Sample> queries;
  double window_s = 0.0;
  std::map<std::string, double> registry;  // counter deltas over the phase
  int client_errors = 0;  // exceptions that ended a client thread
};

// The registry counters the benchmark reads, by scrape name.
constexpr const char* kScrapedCounters[] = {
    "epoch.published_total", "epoch.retired_total",
    "scheduler.coalesced_total", "scheduler.rejected_total",
    "stream.plan_invalidations_total"};

std::map<std::string, double> ScrapeCounters() {
  runtime::TouchServingMetrics();  // registers every serving metric
  std::map<std::string, double> out;
  for (const obs::MetricSample& m : obs::Registry::Global().Snapshot()) {
    for (const char* name : kScrapedCounters) {
      if (m.name == name) out[name] = static_cast<double>(m.count);
    }
  }
  return out;
}

// One writer submitting `churn`'s batches in order, each after the
// previous one completed, beside kQueryClients closed query loops,
// until `seconds` have passed and `min_queries` were answered (but for
// no more than kMaxWindowStretch * `seconds`). Shuts the scheduler down
// (joining its threads) before returning.
ServingPhase RunServingPhase(Serving& serving, Churn churn, double seconds,
                             std::uint64_t min_queries) {
  ServingPhase phase;
  phase.updates.reserve(std::size_t{1} << 16);
  const std::map<std::string, double> before = ScrapeCounters();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  const auto last_call =
      start + std::chrono::duration<double>(kMaxWindowStretch * seconds);
  std::atomic<std::uint64_t> answered{0};
  std::atomic<int> client_errors{0};
  const auto open = [&] {
    const auto now = std::chrono::steady_clock::now();
    return now < deadline ||
           (now < last_call &&
            answered.load(std::memory_order_relaxed) < min_queries);
  };
  // A client that throws stops; the failure is counted, not lost.
  const auto guarded = [&](auto&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      std::cerr << "client error: " << e.what() << "\n";
      client_errors.fetch_add(1);
    }
  };
  const util::Timer window;
  std::thread writer([&] {
    guarded([&] {
      while (open()) {
        stream::EdgeDelta batch = churn.Next();
        const util::Timer t;
        const runtime::JobOutcome outcome =
            serving.scheduler->SubmitUpdate(serving.session, std::move(batch))
                .Wait();
        phase.updates.push_back(
            MakeSample(t.ElapsedMillis(), window.ElapsedSeconds(), outcome));
      }
    });
  });
  std::vector<std::vector<Sample>> per_client(kQueryClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kQueryClients; ++c) {
    per_client[c].reserve(std::size_t{1} << 12);
    clients.emplace_back([&, c] {
      guarded([&] {
        while (open()) {
          const util::Timer t;
          const runtime::JobOutcome outcome =
              serving.scheduler->SubmitQuery(serving.session).Wait();
          per_client[c].push_back(MakeSample(
              t.ElapsedMillis(), window.ElapsedSeconds(), outcome));
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      });
    });
  }
  writer.join();
  for (std::thread& client : clients) client.join();
  phase.window_s = window.ElapsedSeconds();
  phase.client_errors = client_errors.load();
  serving.scheduler->Shutdown();
  serving.scheduler.reset();
  for (const std::vector<Sample>& samples : per_client) {
    phase.queries.insert(phase.queries.end(), samples.begin(), samples.end());
  }
  for (const auto& [name, value] : ScrapeCounters()) {
    phase.registry[name] = value - before.at(name);
  }
  return phase;
}

// Counts this phase's answers that disagree with the replay oracle
// (`expected[e]` = triangles at epoch e) or did not complete.
int CheckServingPhase(const ServingPhase& phase,
                      const std::vector<std::uint64_t>& expected,
                      const runtime::StreamSession& session) {
  int failed = phase.client_errors;
  for (std::size_t b = 0; b < phase.updates.size(); ++b) {
    const Sample& u = phase.updates[b];
    if (u.state != runtime::JobState::kDone || u.epoch != b + 1 ||
        u.triangles != expected[b + 1]) {
      std::cerr << "MISMATCH update " << b << ": state "
                << runtime::ToString(u.state) << ", epoch " << u.epoch
                << ", triangles " << u.triangles << "\n";
      ++failed;
    }
  }
  for (const Sample& q : phase.queries) {
    if (q.state != runtime::JobState::kDone ||
        q.epoch > phase.updates.size() || q.triangles != expected[q.epoch]) {
      std::cerr << "MISMATCH query: state " << runtime::ToString(q.state)
                << ", epoch " << q.epoch << ", triangles " << q.triangles
                << "\n";
      ++failed;
    }
  }
  const std::uint64_t final_count =
      baseline::CountTrianglesReference(session.Snapshot());
  if (final_count != expected[phase.updates.size()] ||
      session.triangles() != final_count) {
    std::cerr << "MISMATCH final state: reference " << final_count
              << ", session " << session.triangles() << "\n";
    ++failed;
  }
  return failed;
}

template <typename Field>
std::string Column(const std::vector<Sample>& samples, Field field) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) {
    values.push_back(static_cast<double>(s.*field));
  }
  return Array(values);
}

std::string PhaseJson(const ServingPhase& phase) {
  const std::vector<Sample>& u = phase.updates;
  const std::vector<Sample>& q = phase.queries;
  std::string registry = "{";
  for (const auto& [name, value] : phase.registry) {
    if (registry.size() > 1) registry += ",";
    registry += "\"" + name + "\":" + Num(value);
  }
  registry += "}";
  return "{\"window_s\":" + Num(phase.window_s) +
         ",\"update\":{\"latency_ms\":" + Column(u, &Sample::latency_ms) +
         ",\"done_s\":" + Column(u, &Sample::done_s) +
         ",\"wait_ms\":" + Column(u, &Sample::wait_ms) +
         ",\"service_ms\":" + Column(u, &Sample::service_ms) +
         ",\"busy_ms\":" + Column(u, &Sample::busy_ms) +
         ",\"and_ops\":" + Column(u, &Sample::and_ops) +
         ",\"ops\":" + Column(u, &Sample::ops) +
         ",\"dropped\":" + Column(u, &Sample::dropped) +
         ",\"recount\":" + Column(u, &Sample::recount) +
         "},\"query\":{\"latency_ms\":" + Column(q, &Sample::latency_ms) +
         ",\"done_s\":" + Column(q, &Sample::done_s) +
         ",\"wait_ms\":" + Column(q, &Sample::wait_ms) +
         ",\"service_ms\":" + Column(q, &Sample::service_ms) +
         ",\"coalesced\":" + Column(q, &Sample::coalesced) +
         "},\"registry\":" + registry + "}";
}

int Serve(const Args& args) {
  const std::filesystem::path dir = args.Get("dir");
  const std::uint64_t seed = std::stoull(args.Get("seed"));
  const double seconds = std::stod(args.Get("seconds"));
  const bool trace = args.Get("trace") == "1";
  const std::uint64_t min_queries = std::stoull(args.Get("min-queries"));

  const util::Timer load_clock;
  const graph::Graph g =
      graph::ReadSnapEdgeListFile((dir / "graph.txt").string());
  const double load_s = load_clock.ElapsedSeconds();
  const std::vector<Edge> held_out = ReadHeldOut(dir / "held_out.txt");

  // Set-up = everything before the first request can be submitted: the
  // session (seed slicing, initial count, epoch 0) and the scheduler
  // (bank pool and dispatch threads). Built kServingSetups times; the
  // last one serves.
  std::vector<double> setup_s;
  std::vector<double> session_init_s;
  const auto make_serving = [&] {
    Serving serving;
    const util::Timer t;
    serving.session = std::make_shared<runtime::StreamSession>(g);
    session_init_s.push_back(t.ElapsedSeconds());
    serving.scheduler = std::make_unique<runtime::Scheduler>(ServingConfig());
    setup_s.push_back(t.ElapsedSeconds());
    return serving;
  };
  for (int i = 1; i < kServingSetups; ++i) (void)make_serving();

  Serving untraced = make_serving();
  const ServingPhase first = RunServingPhase(
      untraced, Churn(g, held_out, seed), seconds, min_queries);
  const double peak_rss_mb = PeakRssMb();
  std::optional<ServingPhase> second;
  Serving traced;
  if (trace) {
    // A fresh session replays the same traffic from epoch 0, so both
    // phases see the same graph evolution.
    traced = make_serving();
    obs::StartTracing((dir / "trace.json").string());
    second = RunServingPhase(traced, Churn(g, held_out, seed), seconds,
                             min_queries);
    obs::StopTracing();
  }

  // Sequential replay oracle over every batch any phase applied.
  std::size_t applied = first.updates.size();
  if (second) applied = std::max(applied, second->updates.size());
  Churn churn(g, held_out, seed);
  stream::IncrementalCounter replay(g);
  std::vector<std::uint64_t> expected = {replay.triangles()};
  for (std::size_t b = 0; b < applied; ++b) {
    expected.push_back(replay.ApplyBatch(churn.Next()).triangles);
  }
  int failed = CheckServingPhase(first, expected, *untraced.session);
  if (second) failed += CheckServingPhase(*second, expected, *traced.session);

  const std::size_t attempted = first.updates.size() + first.queries.size() +
                                (second ? second->updates.size() +
                                              second->queries.size()
                                        : 0);
  std::cout << "serve: " << first.updates.size() << " updates + "
            << first.queries.size() << " queries untraced";
  if (second) {
    std::cout << ", " << second->updates.size() << " updates + "
              << second->queries.size() << " queries traced";
  }
  std::cout << "\n";
  std::cout << "{\"mode\":\"serve\",\"meta\":" << MetaJson()
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"peak_rss_mb\":" << Num(peak_rss_mb)
            << ",\"load_s\":" << Num(load_s)
            << ",\"setup_s\":" << Array(setup_s)
            << ",\"session_init_s\":" << Array(session_init_s)
            << ",\"untraced\":" << PhaseJson(first);
  if (second) std::cout << ",\"traced\":" << PhaseJson(*second);
  std::cout << "}\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Parse(argc, argv);
    if (args.mode == "synth") return Synth(args);
    if (args.mode != "offline" && args.mode != "serve") {
      throw std::invalid_argument("unknown subcommand " + args.mode);
    }
    if (!IsOptimizedBuild()) {
      std::cerr << "tcim_e2e: refusing to measure a " << TCIM_E2E_BUILD_TYPE
                << " build (assertions on or optimization off); configure "
                   "with -DCMAKE_BUILD_TYPE=Release\n";
      return 3;
    }
    return args.mode == "offline" ? Offline(args) : Serve(args);
  } catch (const std::exception& e) {
    std::cerr << "tcim_e2e: " << e.what() << "\n";
    return 2;
  }
}
