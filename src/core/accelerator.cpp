#include "core/accelerator.h"

#include <stdexcept>

#include "core/bitwise_tc.h"
#include "pim/computational_array.h"
#include "util/timer.h"

namespace tcim::core {

void TcimConfig::Normalize() {
  if (slice_bits == 0 || slice_bits > 512) {
    throw std::invalid_argument("TcimConfig: slice_bits must be in [1,512]");
  }
  array.access_width_bits = slice_bits;
  if (array.subarray_cols % array.access_width_bits != 0) {
    throw std::invalid_argument(
        "TcimConfig: subarray columns must be a multiple of slice_bits");
  }
  bit_counter.word_bits = ((slice_bits + 7) / 8) * 8;
  mtj.Validate();
  tech.Validate();
  array.Validate();
}

TcimAccelerator::TcimAccelerator(TcimConfig config)
    : config_(std::move(config)) {
  config_.Normalize();
  device_ = std::make_unique<device::MtjDevice>(config_.mtj);
  array_model_ = std::make_unique<nvsim::ArrayModel>(config_.tech,
                                                     config_.array, *device_);
}

TcimResult TcimAccelerator::Run(const graph::Graph& g) const {
  util::Timer timer;
  const bit::SlicedMatrix matrix =
      BuildSlicedMatrix(g, config_.orientation, config_.slice_bits);
  TcimResult result = RunOnMatrix(matrix, config_.orientation);
  result.host_seconds = timer.ElapsedSeconds();
  return result;
}

TcimResult TcimAccelerator::RunOnMatrix(const bit::SlicedMatrix& matrix,
                                        graph::Orientation orientation) const {
  util::Timer timer;
  const std::uint32_t n = matrix.num_vertices();
  TcimResult result = RunOnMatrixPlan(
      matrix, orientation, arch::BankExecPlan::RowShard(0, n, n));
  result.slices = matrix.ComputeStats();
  result.host_seconds = timer.ElapsedSeconds();
  return result;
}

TcimResult TcimAccelerator::RunOnMatrixPlan(
    const bit::SlicedMatrix& matrix, graph::Orientation orientation,
    const arch::BankExecPlan& plan) const {
  util::Timer timer;
  if (matrix.slice_bits() != config_.slice_bits) {
    throw std::invalid_argument(
        "TcimAccelerator: matrix slice width != configured slice_bits");
  }

  pim::ComputationalArray array(config_.array, config_.bit_counter);
  arch::Controller controller(array, config_.controller);

  TcimResult result;
  result.exec = controller.RunPlan(matrix, plan);
  result.triangles = result.exec.accumulated_bitcount /
                     graph::CountMultiplier(orientation);
  result.perf = EvaluatePerf(result.exec, array_model_->perf(),
                             config_.bit_counter, config_.perf);
  result.host_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tcim::core
