// TcimAccelerator — the public end-to-end API of this library.
//
// One call runs the paper's complete pipeline (Fig. 4 / Algorithm 1):
//
//   graph  -> orientation -> slicing/compression -> mapping onto the
//   computational STT-MRAM array (staging + LRU column cache) ->
//   dual-row-activation ANDs + bit counting  -> triangle count,
//   plus the device-to-architecture latency/energy evaluation.
//
// Typical use:
//   tcim::core::TcimConfig config;                 // paper defaults
//   tcim::core::TcimAccelerator accel(config);
//   tcim::core::TcimResult r = accel.Run(graph);
//   r.triangles, r.perf.serial_seconds, r.exec.cache.HitRate(), ...
//
// Layer: §8 core — see docs/ARCHITECTURE.md. Units: all latencies in
// seconds and energies in joules (SI throughout, util/units.h);
// capacities in bytes. TcimResult::triangles counts each triangle
// exactly once regardless of the configured orientation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "arch/controller.h"
#include "bitmatrix/sliced_matrix.h"
#include "core/perf_model.h"
#include "device/mtj_device.h"
#include "graph/graph.h"
#include "graph/orientation.h"
#include "nvsim/array_model.h"
#include "nvsim/tech.h"
#include "pim/bit_counter.h"

namespace tcim::core {

/// Full configuration with the paper's evaluation defaults:
/// |S| = 64, 16 MB computational array, LRU replacement,
/// upper-triangular orientation.
struct TcimConfig {
  std::uint32_t slice_bits = 64;
  graph::Orientation orientation = graph::Orientation::kUpper;
  device::MtjParams mtj = device::PaperMtjParams();
  nvsim::TechnologyParams tech = nvsim::Default45nm();
  nvsim::ArrayConfig array;  // 16 MB default; access width synced to slice_bits
  arch::ControllerConfig controller;
  pim::BitCounterParams bit_counter;
  PerfModelParams perf;

  /// Normalizes dependent fields (array.access_width_bits = slice_bits,
  /// bit_counter.word_bits) and validates. Called by the accelerator.
  void Normalize();
};

/// Everything a run produces.
struct TcimResult {
  std::uint64_t triangles = 0;
  arch::ExecStats exec;             ///< op counts, cache stats (Fig. 5)
  bit::SliceStats slices;           ///< Tables III/IV inputs
  PerfResult perf;                  ///< Table V "TCIM" / Fig. 6 inputs
  double host_seconds = 0.0;        ///< wall-clock of the simulation itself
};

class TcimAccelerator {
 public:
  explicit TcimAccelerator(TcimConfig config);

  /// Full pipeline on an undirected graph.
  [[nodiscard]] TcimResult Run(const graph::Graph& g) const;

  /// Pipeline over a pre-built sliced matrix (skips orientation +
  /// slicing; used by benches that sweep cache/policy on a fixed
  /// matrix). `orientation` must match how the matrix was built.
  [[nodiscard]] TcimResult RunOnMatrix(const bit::SlicedMatrix& matrix,
                                       graph::Orientation orientation) const;

  /// Pipeline over one bank's execution plan (hub lane + tiles) of a
  /// pre-built matrix — the shard unit of the multi-bank runtime
  /// (runtime::BankPool); a 1D row shard is the one-tile, no-hub plan.
  /// Disjoint plans partition the accumulated bitcount exactly, so
  /// summing shards reproduces the full-run count. Caveats of the
  /// partial view: `triangles` divides the shard's raw bitcount by the
  /// orientation multiplier (for kFullSymmetric a shard's bitcount
  /// need not be divisible by 6 — aggregate raw bitcounts across
  /// shards first, as runtime::AggregateClusterResult does), and
  /// `slices` is left empty (the matrix is shared; the caller computes
  /// its stats once, not per shard).
  [[nodiscard]] TcimResult RunOnMatrixPlan(const bit::SlicedMatrix& matrix,
                                           graph::Orientation orientation,
                                           const arch::BankExecPlan& plan)
      const;

  [[nodiscard]] const TcimConfig& config() const noexcept { return config_; }
  /// The characterized device (Table I downstream values).
  [[nodiscard]] const device::MtjDevice& device() const noexcept {
    return *device_;
  }
  /// The NVSim-level per-op costs in effect.
  [[nodiscard]] const nvsim::ArrayPerf& array_perf() const noexcept {
    return array_model_->perf();
  }

 private:
  TcimConfig config_;
  std::unique_ptr<device::MtjDevice> device_;
  std::unique_ptr<nvsim::ArrayModel> array_model_;
};

}  // namespace tcim::core
