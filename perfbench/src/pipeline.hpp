#pragma once

// The paper's database -> model step, shared by every workload: the
// training sweep over the 23-program suite and the forest:32 deployment
// fit. offline_train times it as its pipeline; the serving workloads run it
// in set-up to get the models they deploy.

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ml/classifier.hpp"
#include "runtime/database.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/partitioning.hpp"
#include "runtime/task.hpp"
#include "sim/machine.hpp"

namespace perfbench {

inline constexpr const char* kModelSpec = "forest:32";
/// 23 programs x their size ladders x 2 machines.
inline constexpr std::size_t kSweepRecords = 276;

struct Sweep {
  tp::runtime::FeatureDatabase db;
  /// Tasks of the first `keepSizes` ladder sizes of every program, in suite
  /// order.
  std::vector<tp::runtime::Task> kept;
  double makeSeconds = 0.0;     ///< Benchmark::make over the ladder
  double measureSeconds = 0.0;  ///< runtime::measureLaunch over all records
  std::size_t programs = 0;     ///< programs swept
};

/// Sweeps every program x size on every machine. Each program with an
/// invalid record, and a record count other than kSweepRecords, counts as a
/// failure in `result`. With `programLatency` set, the wall time of each
/// program's sweep (its whole ladder on every machine) is recorded there.
Sweep runSweep(const std::vector<tp::sim::MachineConfig>& machines,
               const tp::runtime::PartitioningSpace& space,
               std::size_t keepSizes, LatencyHistogram* programLatency,
               Result& result);

/// The kModelSpec leave-one-program-out evaluation (the paper's Figure 1)
/// of every machine, in machine order. A result out of range counts as a
/// failure in `result`.
std::vector<tp::runtime::Fig1Result> evaluateLogo(
    const tp::runtime::FeatureDatabase& db,
    const std::vector<tp::sim::MachineConfig>& machines,
    const tp::runtime::PartitioningSpace& space, Result& result);

/// The kModelSpec deployment model of every machine, in machine order.
std::vector<std::shared_ptr<const tp::ml::Classifier>> fitModels(
    const tp::runtime::FeatureDatabase& db,
    const std::vector<tp::sim::MachineConfig>& machines);

}  // namespace perfbench
