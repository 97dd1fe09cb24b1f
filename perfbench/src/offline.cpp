// offline_train: the paper's database -> model step, on one thread.
//
// One pipeline is the full sweep (23 programs x their size ladders x 2
// machines = 276 records), the forest:32 deployment fit and the forest:32
// leave-one-program-out (LOGO) evaluation, each for both machines.
// The run repeats pipelines until the timed seconds are used up. A
// "request" here is one program's sweep: every size of its ladder built and
// measured on both machines.

#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "bench.hpp"
#include "pipeline.hpp"
#include "features/runtime_features.hpp"
#include "ml/classifier.hpp"
#include "obs/trace.hpp"
#include "ocl/context.hpp"
#include "runtime/compiler.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/scheduler.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace perfbench {
namespace {

using namespace tp;

/// Set-up is a ~2 ms compile, so it is repeated often enough for its
/// median to settle: this many times before each pipeline.
constexpr std::size_t kSetupReps = 33;

struct Pipeline {
  double seconds = 0.0;
  double makeS = 0.0;
  double sweepUs = 0.0;  ///< mean per measureLaunch
  double fitS = 0.0;
  double logoS = 0.0;
  std::size_t programs = 0;
  std::vector<runtime::Fig1Result> fig1;  ///< one per machine
};

/// Replay inputs: the smallest instance of every program.
struct ReplaySet {
  std::vector<runtime::Task> tasks;
  std::vector<std::shared_ptr<const ml::Classifier>> models;
};

Pipeline runPipeline(const std::vector<sim::MachineConfig>& machines,
                     const runtime::PartitioningSpace& space,
                     LatencyHistogram& hist, Result& result,
                     ReplaySet* replay) {
  Pipeline p;
  const auto start = Clock::now();
  Sweep sweep = runSweep(machines, space, replay != nullptr ? 1 : 0, &hist,
                         result);
  p.programs = sweep.programs;
  result.attempted += sweep.programs;
  p.makeS = sweep.makeSeconds;
  p.sweepUs =
      sweep.measureSeconds * 1e6 / static_cast<double>(sweep.db.size());

  auto t = Clock::now();
  auto models = fitModels(sweep.db, machines);
  p.fitS = secondsSince(t);

  t = Clock::now();
  p.fig1 = evaluateLogo(sweep.db, machines, space, result);
  p.logoS = secondsSince(t);
  p.seconds = secondsSince(start);
  if (replay != nullptr) {
    replay->tasks = std::move(sweep.kept);
    replay->models = std::move(models);
  }
  return p;
}

double geomean(const std::vector<runtime::Fig1Result>& fig1,
               double runtime::Fig1Result::*field) {
  double sum = 0.0;
  for (const auto& f : fig1) sum += std::log(f.*field);
  return std::exp(sum / static_cast<double>(fig1.size()));
}

}  // namespace

Result runOffline(const Options& opt) {
  Result result;
  result.clients = 1;
  const auto machines = sim::evaluationMachines();
  const runtime::PartitioningSpace space(machines[0].numDevices(), 10);

  // Set-up is the suite compile: the 23 kernel sources through the
  // frontend. It is repeated before every pipeline, so its median samples
  // the whole run; the first rep counts from process start.
  std::vector<double> setupS, compileMs;
  auto setUp = [&] {
    const std::size_t reps = opt.shortRun ? 1 : kSetupReps;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto start = setupS.empty() ? processStart() : Clock::now();
      const auto t = Clock::now();
      for (const auto& bench : suite::allBenchmarks()) {
        doNotOptimize(runtime::CompiledKernel::compile(bench.source()));
      }
      compileMs.push_back(secondsSince(t) * 1e3);
      setupS.push_back(secondsSince(start));
    }
  };

  // Phase 0 untraced; with --trace 1 a second, traced phase of equal length.
  LatencyHistogram hist;
  ReplaySet replay;
  std::vector<Pipeline> pipelines;
  double rate[2] = {0.0, 0.0};
  const double phaseSeconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  for (int phase = 0; phase < (opt.trace ? 2 : 1); ++phase) {
    if (phase == 1) obs::traceRecorder().enable();
    LatencyHistogram traced;
    LatencyHistogram& h = phase == 0 ? hist : traced;
    const auto start = Clock::now();
    std::size_t programs = 0;
    double busy = 0.0;
    do {
      setUp();
      pipelines.push_back(runPipeline(machines, space, h, result,
                                      pipelines.empty() ? &replay : nullptr));
      programs += pipelines.back().programs;
      busy += pipelines.back().seconds;
    } while (!opt.shortRun && secondsSince(start) < phaseSeconds);
    rate[phase] = static_cast<double>(programs) / busy;
    if (phase == 1) obs::traceRecorder().disable();
  }

  auto collect = [&](double Pipeline::*field) {
    std::vector<double> v;
    for (const auto& p : pipelines) v.push_back(p.*field);
    return median(v);
  };
  const auto& fig1 = pipelines.back().fig1;
  EndToEnd& e = result.e2e;
  e.setupS = median(setupS);
  e.reqPerS = rate[0];
  e.latencyP50Us = hist.quantileSeconds(0.50) * 1e6;
  e.latencyP99Us = hist.quantileSeconds(0.99) * 1e6;
  e.oracleFraction = geomean(fig1, &runtime::Fig1Result::oracleFraction);
  e.speedupVsCpu = geomean(fig1, &runtime::Fig1Result::meanSpeedupOverCpu);
  e.speedupVsGpu = geomean(fig1, &runtime::Fig1Result::meanSpeedupOverGpu);
  e.pipelineS = collect(&Pipeline::seconds);

  std::string perMachine;
  for (const auto& f : fig1) {
    perMachine += " " + f.machine + " " + fmt(f.oracleFraction, 3);
  }
  result.notes.push_back("  " + std::to_string(pipelines.size()) +
                         " pipelines, " + std::to_string(hist.count()) +
                         " program sweeps timed; LOGO oracle fraction" +
                         perMachine);

  if (opt.trace) {
    Layers& l = result.layers;
    l.fitS = collect(&Pipeline::fitS);
    l.logoS = collect(&Pipeline::logoS);
    double accuracy = 0.0;
    for (const auto& f : fig1) accuracy += f.exactLabelAccuracy;
    l.exactAccuracy = accuracy / static_cast<double>(fig1.size());
    l.sweepUs = collect(&Pipeline::sweepUs);
    l.makeS = collect(&Pipeline::makeS);
    l.compileMs = median(compileMs);
    l.traceOverheadFrac = 1.0 - rate[1] / rate[0];

    // Replay the deployment-phase calls on the sweep's smallest instances.
    std::vector<std::vector<double>> x;
    std::vector<std::size_t> labels;
    for (const auto& task : replay.tasks) {
      x.push_back(features::combinedFeatureVector(task.features,
                                                  task.launchInfo()));
      labels.push_back(
          static_cast<std::size_t>(replay.models[0]->predict(x.back())));
    }
    vcl::Context context(machines[0], vcl::ExecMode::TimeOnly);
    runtime::Scheduler scheduler(context);
    const std::size_t n = replay.tasks.size();
    l.taskCopyNs = nsPerOp(n, [&](std::size_t i) {
      const runtime::Task copy = replay.tasks[i];
      doNotOptimize(copy);
    });
    l.vectorNs = nsPerOp(n, [&](std::size_t i) {
      doNotOptimize(features::combinedFeatureVector(
          replay.tasks[i].features, replay.tasks[i].launchInfo()));
    });
    l.predictNs = nsPerOp(n, [&](std::size_t i) {
      doNotOptimize(replay.models[0]->predict(x[i]));
    });
    l.executeNs = nsPerOp(n, [&](std::size_t i) {
      doNotOptimize(scheduler.execute(replay.tasks[i], space.at(labels[i])));
    });
  }
  e.peakRssMb = peakRssMb();
  return result;
}

}  // namespace perfbench
