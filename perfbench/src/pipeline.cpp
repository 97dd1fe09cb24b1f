#include "pipeline.hpp"

#include <bit>

#include "runtime/evaluation.hpp"
#include "suite/benchmark.hpp"

namespace perfbench {

using namespace tp;

Sweep runSweep(const std::vector<sim::MachineConfig>& machines,
               const runtime::PartitioningSpace& space, std::size_t keepSizes,
               LatencyHistogram* programLatency, Result& result) {
  Sweep sweep{runtime::FeatureDatabase::withDefaultSchema(space.size()),
              {}, 0.0, 0.0, 0};
  for (const auto& bench : suite::allBenchmarks()) {
    const auto t0 = Clock::now();
    bool ok = true;
    for (std::size_t k = 0; k < bench.sizes.size(); ++k) {
      const std::size_t n = bench.sizes[k];
      const auto tk = Clock::now();
      auto inst = bench.make(n);
      sweep.makeSeconds += secondsSince(tk);
      const std::string sizeLabel = "n=" + std::to_string(n);
      for (const auto& machine : machines) {
        const auto tm = Clock::now();
        auto record =
            runtime::measureLaunch(inst.task, machine, space, sizeLabel);
        sweep.measureSeconds += secondsSince(tm);
        ok = ok && record.times.size() == space.size();
        for (const double t : record.times) {
          ok = ok && t > 0.0 && std::isfinite(t);
        }
        if (ok) {
          const auto best = static_cast<std::uint64_t>(record.bestLabel());
          result.digest += mix64(sweep.db.size() * 131 + best);
        }
        sweep.db.add(std::move(record));
      }
      if (k < keepSizes) sweep.kept.push_back(std::move(inst.task));
    }
    if (programLatency != nullptr) {
      programLatency->add(static_cast<std::uint64_t>(secondsSince(t0) * 1e9));
    }
    ++sweep.programs;
    if (!ok) {
      ++result.failed;
      result.fail("bad sweep record for " + bench.name);
    }
  }
  if (sweep.db.size() != kSweepRecords) {
    ++result.failed;
    result.fail("sweep produced " + std::to_string(sweep.db.size()) +
                " records, expected " + std::to_string(kSweepRecords));
  }
  return sweep;
}

std::vector<runtime::Fig1Result> evaluateLogo(
    const runtime::FeatureDatabase& db,
    const std::vector<sim::MachineConfig>& machines,
    const runtime::PartitioningSpace& space, Result& result) {
  const auto factory = [] { return ml::makeClassifier(kModelSpec); };
  std::vector<runtime::Fig1Result> fig1;
  for (const auto& machine : machines) {
    fig1.push_back(runtime::evaluateFigure1(db, machine.name, space, factory));
    const auto& f = fig1.back();
    const bool ok = f.rows.size() == suite::allBenchmarks().size() &&
                    f.oracleFraction > 0.0 && f.oracleFraction <= 1.0 &&
                    f.meanSpeedupOverCpu > 0.0 && f.meanSpeedupOverGpu > 0.0;
    if (!ok) {
      ++result.failed;
      result.fail("LOGO evaluation out of range on " + machine.name);
    }
    result.digest += mix64(std::bit_cast<std::uint64_t>(f.oracleFraction));
  }
  return fig1;
}

std::vector<std::shared_ptr<const ml::Classifier>> fitModels(
    const runtime::FeatureDatabase& db,
    const std::vector<sim::MachineConfig>& machines) {
  std::vector<std::shared_ptr<const ml::Classifier>> models;
  for (const auto& machine : machines) {
    models.push_back(
        runtime::trainDeploymentModel(db, machine.name, kModelSpec));
  }
  return models;
}

}  // namespace perfbench
