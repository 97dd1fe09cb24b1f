// Serving workloads: closed-loop clients, each waiting for its
// tp::serve::PartitionService::call() before sending the next request.
//
//   warm_hits      4 clients; 23 programs x 2 ladder sizes x 2 machines =
//                  92 launches, cache 1024. After the untimed pass every
//                  request hits: fingerprint, cache probe, inline lane,
//                  Task copy and simulated execute; no features, model or
//                  feedback sweep.
//   miss_stream    2 clients (the lane workers take the other cores); the
//                  46 base launches x 64 transfer-amortisation variants x
//                  2 machines = 5888 launches against a 64-slot cache, so
//                  about 1% hit. 1 request in 16 carries a never-seen
//                  amortisation, so the feedback sweep runs at a fixed rate.
//   adapt_retrain  2 clients; Zipf(1.1) over 46 x 8 variants x 2 machines,
//                  cache 1024, refinement on; client 0 calls retrain()
//                  after every kRetrainEvery of its requests, so cache
//                  invalidation and refill misses sit next to the hits.
//
// Every response is checked (not shed, label inside the space). A sample
// is checked bit for bit against a bench-side runtime::measureLaunch sweep
// of the same launch, and with refinement off against predictLabel().

#include <atomic>
#include <bit>
#include <cstdio>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>

#include "bench.hpp"
#include "pipeline.hpp"
#include "common/rng.hpp"
#include "features/runtime_features.hpp"
#include "obs/trace.hpp"
#include "ocl/context.hpp"
#include "runtime/compiler.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/scheduler.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace perfbench {
namespace {

using namespace tp;

constexpr std::size_t kSizesPerProgram = 2;
/// A run is this many rounds of (set-up, timed share), so set-up and
/// timing both sample the whole run rather than one stretch of it.
constexpr std::size_t kRounds = 3;
constexpr std::size_t kRetrainEvery = 1 << 15;
/// A timed phase is cut into this many equal windows; the end-to-end
/// figures are medians over windows, so a burst of interference from
/// outside the process moves one window, not the result.
constexpr std::size_t kWindows = 20;
constexpr std::size_t kSampleEvery = 61;  ///< prime: samples hit novel slots
constexpr std::size_t kMaxSamplesPerClient = 512;
constexpr std::size_t kMaxNovelChecks = 64;
constexpr std::size_t kReplayInputs = 256;
constexpr double kNovelStep = 1e-5;  ///< distinct after 6-digit key rounding
constexpr std::size_t kNovelSlots = 49999;  ///< novel scales stay in (0.5, 1)

struct Spec {
  std::size_t clients = 1;
  std::size_t variants = 1;  ///< transfer-amortisation variants per launch
  std::size_t cacheCapacity = 1024;
  bool refine = false;
  bool zipf = false;
  std::size_t novelEvery = 0;    ///< 1 request in N is never-seen (0: none)
  std::size_t retrainEvery = 0;  ///< client 0 retrains every N (0: never)
  std::size_t shortRequests = 0;  ///< requests per client under --short
};

std::size_t cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

Spec specFor(const Options& opt) {
  Spec s;
  if (opt.workload == "warm_hits") {
    s.clients = 4;
    s.shortRequests = 4000;
  } else if (opt.workload == "miss_stream") {
    s.clients = 2;
    s.variants = 64;
    s.cacheCapacity = 64;
    s.novelEvery = 16;
    s.shortRequests = 1500;
  } else {
    s.clients = 2;
    s.variants = 8;
    s.refine = true;
    s.zipf = true;
    s.retrainEvery = kRetrainEvery;
    s.shortRequests = 3000;
    if (opt.shortRun) {
      // One client, so refiner probes and retrains interleave with the
      // requests the same way on every same-seed run.
      s.clients = 1;
      s.retrainEvery = 1000;
    }
  }
  s.clients = std::min(s.clients, cores());
  return s;
}

double variantScale(std::size_t j) {
  return 1.0 / (1.0 + static_cast<double>(j));
}

/// Transfer scale of the k-th never-seen launch: below 1 and above 0.5,
/// so it is none of the pool's 1/(1+j) variants.
double novelScale(std::size_t k) {
  return 1.0 - kNovelStep * static_cast<double>(1 + k % kNovelSlots);
}

struct Launch {
  std::uint32_t task = 0;
  std::uint32_t machine = 0;
};

/// Everything one set-up builds: the launch pool, its bench-side timings,
/// the deployment models and the warmed service.
struct Setup {
  std::vector<sim::MachineConfig> machines = sim::evaluationMachines();
  runtime::PartitioningSpace space{machines[0].numDevices(), 10};
  std::size_t numBase = 0;
  std::vector<runtime::Task> tasks;  ///< base b, variant j at b * variants + j
  std::vector<Launch> launches;      ///< task t on machine m at t * M + m
  std::vector<std::vector<double>> times;  ///< measureLaunch time per label
  std::vector<double> logOracle, logCpu, logGpu;
  std::vector<std::shared_ptr<const ml::Classifier>> models;
  std::unique_ptr<serve::PartitionService> service;

  double seconds = 0.0;
  double compileMs = 0.0;
  double makeS = 0.0;
  double fitS = 0.0;
  double logoS = 0.0;
  double logoAccuracy = 0.0;  ///< LOGO exact-match accuracy, machine mean
  double pipelineS = 0.0;
  double sweepUs = 0.0;
};

/// Picks pool launches: uniform, or Zipf(1.1) over a fixed popularity
/// order. The order is part of the workload, not of the seed: which
/// launches are hot decides the quality geomeans, and the seed should only
/// vary the request stream.
class Picker {
public:
  Picker(std::size_t n, bool zipf) : n_(n) {
    if (!zipf) return;
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    common::Rng rng(0x21F);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.below(i)]);
    }
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -1.1);
      cdf_[r] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  std::size_t pick(common::Rng& rng) const {
    if (cdf_.empty()) return rng.below(n_);
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = static_cast<std::size_t>(it - cdf_.begin());
    return order_[std::min(rank, n_ - 1)];
  }

private:
  std::size_t n_;
  std::vector<std::size_t> order_;
  std::vector<double> cdf_;
};

struct Sample {
  std::size_t launch = 0;  ///< pool launch, or base task for a novel one
  std::size_t machine = 0;
  bool novel = false;
  double scale = 1.0;
  std::size_t label = 0;
  double makespan = 0.0;
};

/// One client's view of a phase; fixed memory apart from the capped
/// sample and retrain logs.
struct ClientLog {
  std::vector<LatencyHistogram> windows =
      std::vector<LatencyHistogram>(kWindows);
  std::vector<std::uint64_t> windowCompleted =
      std::vector<std::uint64_t>(kWindows);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t scored = 0;  ///< pool responses in the quality geomeans
  std::uint64_t novelSent = 0;
  double logServed = 0.0, logOracle = 0.0, logCpu = 0.0, logGpu = 0.0;
  std::uint64_t digest = 0;
  std::vector<Sample> samples;
  std::vector<double> retrainSeconds;
  std::string firstError;
};

struct PhaseOut {
  std::vector<std::unique_ptr<ClientLog>> logs;
  double wallSeconds = 0.0;
  double windowSeconds = 0.0;  ///< the wall time under --short (one window)
};

/// Medians over the windows of every phase given: completed requests per
/// second and the latency quantiles. `samples` counts every latency.
struct Figures {
  double reqPerS = 0.0, p50Us = 0.0, p99Us = 0.0;
  double minRate = 0.0, maxRate = 0.0;
  std::uint64_t samples = 0, minWindowSamples = ~std::uint64_t{0};
};

Figures figuresOf(const std::vector<PhaseOut>& phases) {
  std::vector<double> rate, p50, p99;
  Figures f;
  for (const PhaseOut& phase : phases) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      LatencyHistogram hist;
      std::uint64_t completed = 0;
      for (const auto& log : phase.logs) {
        hist.merge(log->windows[w]);
        completed += log->windowCompleted[w];
      }
      if (hist.count() == 0) continue;
      // The last window also holds the requests in flight at the stop.
      const bool last =
          w + 1 == kWindows || phase.windowSeconds >= phase.wallSeconds;
      const double span =
          last ? phase.wallSeconds -
                     phase.windowSeconds * static_cast<double>(w)
               : phase.windowSeconds;
      rate.push_back(static_cast<double>(completed) / span);
      p50.push_back(hist.quantileSeconds(0.50) * 1e6);
      p99.push_back(hist.quantileSeconds(0.99) * 1e6);
      f.samples += hist.count();
      f.minWindowSamples = std::min(f.minWindowSamples, hist.count());
    }
  }
  if (rate.empty()) return Figures{};
  f.reqPerS = median(rate);
  f.minRate = *std::min_element(rate.begin(), rate.end());
  f.maxRate = *std::max_element(rate.begin(), rate.end());
  f.p50Us = median(p50);
  f.p99Us = median(p99);
  return f;
}

/// The service counters the per-layer table reads, as deltas over phases.
struct Counters {
  double submitted = 0, completed = 0, inlined = 0, laneExhausted = 0;
  double batches = 0, feedbackRecords = 0, retrains = 0;
  double lookups = 0, hits = 0, evictions = 0, invalidations = 0;
  double decisions = 0, explorations = 0, wins = 0;

  static Counters of(const serve::ServiceStats& st) {
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {d(st.requestsSubmitted), d(st.requestsCompleted),
            d(st.requestsInline),    d(st.inlineLaneExhausted),
            d(st.batches),           d(st.feedbackRecords),
            d(st.retrains),          d(st.cache.lookups),
            d(st.cache.hits),        d(st.cache.evictions),
            d(st.cache.invalidations), d(st.refiner.decisions),
            d(st.refiner.explorations), d(st.refiner.wins)};
  }
  /// Adds `after - before`.
  void addDelta(const Counters& before, const Counters& after) {
    submitted += after.submitted - before.submitted;
    completed += after.completed - before.completed;
    inlined += after.inlined - before.inlined;
    laneExhausted += after.laneExhausted - before.laneExhausted;
    batches += after.batches - before.batches;
    feedbackRecords += after.feedbackRecords - before.feedbackRecords;
    retrains += after.retrains - before.retrains;
    lookups += after.lookups - before.lookups;
    hits += after.hits - before.hits;
    evictions += after.evictions - before.evictions;
    invalidations += after.invalidations - before.invalidations;
    decisions += after.decisions - before.decisions;
    explorations += after.explorations - before.explorations;
    wins += after.wins - before.wins;
  }
};

/// `phase` keeps never-seen scales distinct across the phases of one run.
PhaseOut runPhase(Setup& s, const Spec& spec, const Picker& picker,
                  std::uint64_t seed, std::size_t phase, double seconds,
                  std::size_t requestsPerClient) {
  PhaseOut out;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    out.logs.push_back(std::make_unique<ClientLog>());
    out.logs.back()->samples.reserve(kMaxSamplesPerClient);
  }
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  Clock::time_point start;  // written before `go` is released
  out.windowSeconds = requestsPerClient > 0
                          ? 1e9
                          : seconds / static_cast<double>(kWindows);
  const std::size_t machineCount = s.machines.size();
  const std::size_t spaceSize = s.space.size();

  auto client = [&](std::size_t c) {
    ClientLog& log = *out.logs[c];
    common::Rng rng(mix64(seed * 0x9E37 + phase * 131 + c));
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::size_t r = 0;; ++r) {
      if (requestsPerClient > 0 ? r >= requestsPerClient
                                : stop.load(std::memory_order_relaxed)) {
        break;
      }
      const bool novel =
          spec.novelEvery > 0 && r % spec.novelEvery == spec.novelEvery - 1;
      std::size_t idx = 0, task = 0, machine = 0;
      double scale = 1.0;
      if (novel) {
        task = rng.below(s.numBase) * spec.variants;
        machine = rng.below(machineCount);
        // Phases start a quarter of the slots apart; one phase sends far
        // fewer than that many never-seen launches.
        scale = novelScale(phase * (kNovelSlots / 4) +
                           log.novelSent * spec.clients + c);
        ++log.novelSent;
      } else {
        idx = picker.pick(rng);
        task = s.launches[idx].task;
        machine = s.launches[idx].machine;
      }

      const auto t0 = Clock::now();
      serve::LaunchRequest request;
      request.machine = s.machines[machine].name;
      request.task = s.tasks[task];
      if (novel) request.task.transferScale = scale;
      serve::LaunchResponse response;
      bool ok = true;
      try {
        response = s.service->call(std::move(request));
      } catch (const std::exception& e) {
        ok = false;
        if (log.firstError.empty()) log.firstError = e.what();
      }
      const auto t1 = Clock::now();
      const auto window = std::min<std::size_t>(
          kWindows - 1,
          static_cast<std::size_t>(
              std::chrono::duration<double>(t0 - start).count() /
              out.windowSeconds));
      log.windows[window].add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
      ++log.attempted;
      if (ok && !response.shed && response.label < spaceSize) {
        ++log.windowCompleted[window];
      } else {
        ++log.failed;
        if (log.firstError.empty()) {
          log.firstError = response.shed ? "request shed"
                                         : "label outside the space";
        }
        continue;
      }

      const std::uint64_t key =
          novel ? mix64(task * 7919 + machine) ^
                      mix64(std::bit_cast<std::uint64_t>(scale))
                : mix64(idx);
      log.digest += mix64(key + response.label);
      if (!novel) {
        ++log.scored;
        log.logServed += std::log(s.times[idx][response.label]);
        log.logOracle += s.logOracle[idx];
        log.logCpu += s.logCpu[idx];
        log.logGpu += s.logGpu[idx];
      }
      if (r % kSampleEvery == 0 && log.samples.size() < kMaxSamplesPerClient) {
        log.samples.push_back({novel ? task : idx, machine, novel, scale,
                               response.label, response.execution.makespan});
      }
      if (c == 0 && spec.retrainEvery > 0 &&
          (r + 1) % spec.retrainEvery == 0) {
        const auto tr = Clock::now();
        try {
          s.service->retrain();
        } catch (const std::exception& e) {
          ++log.failed;
          if (log.firstError.empty()) log.firstError = e.what();
        }
        log.retrainSeconds.push_back(secondsSince(tr));
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back(client, c);
  }
  while (ready.load() < spec.clients) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  if (requestsPerClient == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (auto& t : threads) t.join();
  out.wallSeconds = secondsSince(start);
  out.windowSeconds = std::min(out.windowSeconds, out.wallSeconds);
  return out;
}

/// One full set-up, from suite compile to a warmed service.
std::unique_ptr<Setup> buildSetup(const Spec& spec, Clock::time_point start,
                                  Result& result) {
  auto s = std::make_unique<Setup>();
  const auto& suite = suite::allBenchmarks();

  auto t = Clock::now();
  for (const auto& bench : suite) {
    doNotOptimize(runtime::CompiledKernel::compile(bench.source()));
  }
  s->compileMs = secondsSince(t) * 1e3;

  // The database -> model step, as offline_train runs it: the paper's full
  // training sweep, the forest:32 deployment fit and the LOGO evaluation.
  // The sweep's first two ladder sizes are the pool.
  t = Clock::now();
  Sweep sweep =
      runSweep(s->machines, s->space, kSizesPerProgram, nullptr, result);
  const auto tf = Clock::now();
  s->models = fitModels(sweep.db, s->machines);
  s->fitS = secondsSince(tf);
  const auto tl = Clock::now();
  for (const auto& f : evaluateLogo(sweep.db, s->machines, s->space, result)) {
    s->logoAccuracy +=
        f.exactLabelAccuracy / static_cast<double>(s->machines.size());
  }
  s->logoS = secondsSince(tl);
  s->pipelineS = secondsSince(t);
  s->makeS = sweep.makeSeconds;
  double sweepSeconds = sweep.measureSeconds;
  std::size_t measured = sweep.db.size();

  s->numBase = sweep.kept.size();
  for (const auto& task : sweep.kept) {
    for (std::size_t j = 0; j < spec.variants; ++j) {
      s->tasks.push_back(task);
      s->tasks.back().transferScale = variantScale(j);
    }
  }
  const std::size_t machineCount = s->machines.size();
  for (std::size_t task = 0; task < s->tasks.size(); ++task) {
    for (std::size_t m = 0; m < machineCount; ++m) {
      s->launches.push_back({static_cast<std::uint32_t>(task),
                             static_cast<std::uint32_t>(m)});
    }
  }

  // Oracle precompute: every pool launch, measured bench-side.
  for (const Launch& l : s->launches) {
    const auto tm = Clock::now();
    s->times.push_back(runtime::measureLaunch(s->tasks[l.task],
                                              s->machines[l.machine], s->space,
                                              "")
                           .times);
    sweepSeconds += secondsSince(tm);
  }
  measured += s->launches.size();
  s->sweepUs = sweepSeconds * 1e6 / static_cast<double>(measured);
  const std::size_t cpu = s->space.cpuOnlyIndex();
  const std::size_t gpu = s->space.singleDeviceIndex(1);
  for (const auto& times : s->times) {
    s->logOracle.push_back(
        std::log(*std::min_element(times.begin(), times.end())));
    s->logCpu.push_back(std::log(times[cpu]));
    s->logGpu.push_back(std::log(times[gpu]));
  }

  serve::ServiceConfig config;
  config.cacheCapacity = spec.cacheCapacity;
  config.refine = spec.refine;
  // Clients and lane workers together take the cores, no more.
  config.workerThreads = std::max<std::size_t>(1, cores() - spec.clients);
  s->service = std::make_unique<serve::PartitionService>(config);
  for (std::size_t m = 0; m < machineCount; ++m) {
    s->service->addMachine(s->machines[m], s->models[m]);
  }

  // Untimed pass: every pool launch once, split across the clients.
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> warmFailures{0};
  for (std::size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t idx = c; idx < s->launches.size(); idx += spec.clients) {
        serve::LaunchRequest request;
        request.machine = s->machines[s->launches[idx].machine].name;
        request.task = s->tasks[s->launches[idx].task];
        try {
          if (s->service->call(std::move(request)).shed) ++warmFailures;
        } catch (const std::exception&) {
          ++warmFailures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  if (warmFailures.load() > 0) {
    result.failed += warmFailures.load();
    result.fail(std::to_string(warmFailures.load()) +
                " requests failed in the untimed pass");
  }
  s->seconds = secondsSince(start);
  return s;
}

/// Checks the sampled responses bit for bit; returns the mismatch count.
std::uint64_t verifySamples(Setup& s, const Spec& spec,
                            const std::vector<Sample>& samples,
                            Result& result) {
  std::uint64_t mismatches = 0;
  std::size_t novelChecked = 0;
  for (const auto& sample : samples) {
    runtime::Task novelTask;
    const runtime::Task* task = nullptr;
    std::vector<double> times;
    if (sample.novel) {
      if (novelChecked++ >= kMaxNovelChecks) continue;
      novelTask = s.tasks[sample.launch];
      novelTask.transferScale = sample.scale;
      task = &novelTask;
      times = runtime::measureLaunch(novelTask, s.machines[sample.machine],
                                     s.space, "")
                  .times;
    } else {
      task = &s.tasks[s.launches[sample.launch].task];
      times = s.times[sample.launch];
    }
    bool ok = times[sample.label] == sample.makespan;
    if (!ok) {
      result.fail("served makespan " + std::to_string(sample.makespan) +
                  " != measureLaunch " + std::to_string(times[sample.label]) +
                  " for " + task->programName);
    }
    if (!spec.refine) {
      const std::size_t want =
          s.service->predictLabel(s.machines[sample.machine].name, *task);
      if (want != sample.label) {
        ok = false;
        result.fail("served label " + std::to_string(sample.label) +
                    " != predictLabel " + std::to_string(want) + " for " +
                    task->programName);
      }
    }
    if (!ok) ++mismatches;
  }
  return mismatches;
}

struct Replay {
  double taskCopyNs = 0.0, fingerprintNs = 0.0, vectorNs = 0.0,
         predictNs = 0.0, predictLabelUs = 0.0, executeNs = 0.0;
};

/// Times the public stage calls on launches drawn like the workload's.
Replay replayStages(Setup& s, const Picker& picker, std::uint64_t seed) {
  common::Rng rng(mix64(seed ^ 0x5E7));
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < kReplayInputs; ++i) {
    picks.push_back(picker.pick(rng));
  }
  auto taskOf = [&](std::size_t i) -> const runtime::Task& {
    return s.tasks[s.launches[picks[i]].task];
  };
  auto machineOf = [&](std::size_t i) -> const std::string& {
    return s.machines[s.launches[picks[i]].machine].name;
  };
  std::vector<std::vector<double>> x;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    x.push_back(features::combinedFeatureVector(taskOf(i).features,
                                                taskOf(i).launchInfo()));
    labels.push_back(s.service->predictLabel(machineOf(i), taskOf(i)));
  }
  std::vector<std::unique_ptr<vcl::Context>> contexts;
  std::vector<runtime::Scheduler> schedulers;
  for (const auto& machine : s.machines) {
    contexts.push_back(
        std::make_unique<vcl::Context>(machine, vcl::ExecMode::TimeOnly));
  }
  for (auto& ctx : contexts) schedulers.emplace_back(*ctx);

  const std::size_t n = picks.size();
  Replay r;
  r.taskCopyNs = nsPerOp(n, [&](std::size_t i) {
    const runtime::Task copy = taskOf(i);
    doNotOptimize(copy);
  });
  const auto& interner = s.service->interner();
  r.fingerprintNs = nsPerOp(n, [&](std::size_t i) {
    const auto& task = taskOf(i);
    const auto fp = serve::launchFingerprint(
        interner.find(machineOf(i), task.programName, task.kernelName), task,
        serve::ServiceConfig{}.cacheRoundDigits);
    doNotOptimize(fp);
  });
  r.vectorNs = nsPerOp(n, [&](std::size_t i) {
    doNotOptimize(features::combinedFeatureVector(taskOf(i).features,
                                                  taskOf(i).launchInfo()));
  });
  r.predictNs = nsPerOp(n, [&](std::size_t i) {
    doNotOptimize(s.models[s.launches[picks[i]].machine]->predict(x[i]));
  });
  r.predictLabelUs = 1e-3 * nsPerOp(n, [&](std::size_t i) {
    doNotOptimize(s.service->predictLabel(machineOf(i), taskOf(i)));
  });
  r.executeNs = nsPerOp(n, [&](std::size_t i) {
    doNotOptimize(schedulers[s.launches[picks[i]].machine].execute(
        taskOf(i), s.space.at(labels[i])));
  });
  return r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Result runServing(const Options& opt) {
  const Spec spec = specFor(opt);
  Result result;
  result.clients = spec.clients;
  std::optional<Picker> picker;  // the pool is known after the first set-up

  std::unique_ptr<Setup> s;
  std::vector<double> setupS, pipelineS, compileMs, fitS, logoS, makeS,
      sweepUs;
  std::vector<PhaseOut> untraced, traced;
  Counters counters;
  const std::size_t rounds = opt.shortRun ? 1 : kRounds;
  const std::size_t perClient = opt.shortRun ? spec.shortRequests : 0;
  const double share =
      opt.seconds / static_cast<double>(rounds) / (opt.trace ? 2.0 : 1.0);
  for (std::size_t round = 0; round < rounds; ++round) {
    s.reset();
    // The first set-up counts from process start; the others from their own.
    s = buildSetup(spec, round == 0 ? processStart() : Clock::now(), result);
    setupS.push_back(s->seconds);
    pipelineS.push_back(s->pipelineS);
    compileMs.push_back(s->compileMs);
    fitS.push_back(s->fitS);
    logoS.push_back(s->logoS);
    makeS.push_back(s->makeS);
    sweepUs.push_back(s->sweepUs);
    if (!picker) picker.emplace(s->launches.size(), spec.zipf);

    const auto before = Counters::of(s->service->stats());
    untraced.push_back(runPhase(*s, spec, *picker, opt.seed, 2 * round, share,
                                perClient));
    if (opt.trace) {
      obs::traceRecorder().enable();
      traced.push_back(runPhase(*s, spec, *picker, opt.seed, 2 * round + 1,
                                share, perClient));
      obs::traceRecorder().disable();
    }
    counters.addDelta(before, Counters::of(s->service->stats()));
    // Samples are checked against this round's set-up and service.
    for (auto* phases : {&untraced, &traced}) {
      if (phases->size() != round + 1) continue;
      for (const auto& log : phases->back().logs) {
        result.failed += verifySamples(*s, spec, log->samples, result);
      }
    }
  }

  // End-to-end figures come from the untraced phases; counts and checks
  // cover every phase.
  const Figures figures = figuresOf(untraced);
  ClientLog total;
  std::vector<double> retrainSeconds;
  for (auto* phases : {&untraced, &traced}) {
    for (const auto& phase : *phases) {
      for (const auto& log : phase.logs) {
        if (phases == &untraced) {
          total.logServed += log->logServed;
          total.logOracle += log->logOracle;
          total.logCpu += log->logCpu;
          total.logGpu += log->logGpu;
          total.scored += log->scored;
        }
        result.attempted += log->attempted;
        result.failed += log->failed;
        total.novelSent += log->novelSent;
        result.digest += log->digest;
        retrainSeconds.insert(retrainSeconds.end(),
                              log->retrainSeconds.begin(),
                              log->retrainSeconds.end());
        if (!log->firstError.empty()) result.fail(log->firstError);
      }
    }
  }

  EndToEnd& e = result.e2e;
  e.setupS = median(setupS);
  e.reqPerS = figures.reqPerS;
  e.latencyP50Us = figures.p50Us;
  e.latencyP99Us = figures.p99Us;
  const auto scored =
      static_cast<double>(std::max<std::uint64_t>(total.scored, 1));
  e.oracleFraction = std::exp((total.logOracle - total.logServed) / scored);
  e.speedupVsCpu = std::exp((total.logCpu - total.logServed) / scored);
  e.speedupVsGpu = std::exp((total.logGpu - total.logServed) / scored);
  e.pipelineS = median(pipelineS);

  result.notes.push_back(
      "  " + std::to_string(rounds) + " rounds; latency samples " +
      std::to_string(figures.samples) + ", fewest in one window " +
      std::to_string(figures.minWindowSamples) + " (" +
      std::to_string(figures.minWindowSamples / 100) +
      " beyond its p99); quality over " + std::to_string(total.scored) +
      " pool responses of " + std::to_string(s->launches.size()) +
      " pool launches; " + std::to_string(total.novelSent) +
      " never-seen launches, " + std::to_string(retrainSeconds.size()) +
      " retrains; window req/s " + fmt(figures.minRate, 0) + " .. " +
      fmt(figures.maxRate, 0));

  if (opt.trace) {
    Layers& l = result.layers;
    const Counters& c = counters;
    l.cacheHitRatio = ratio(c.hits, c.lookups);
    l.cacheEvictionsPerReq = ratio(c.evictions, c.submitted);
    l.inlineRatio = ratio(c.inlined, c.submitted);
    l.laneExhaustedPerReq = ratio(c.laneExhausted, c.submitted);
    l.requestsPerBatch = ratio(c.completed - c.inlined, c.batches);
    l.feedbackRecordedRatio =
        ratio(c.feedbackRecords, static_cast<double>(total.novelSent));
    l.retrainMs = median(retrainSeconds) * 1e3;
    l.invalidationsPerRetrain = ratio(c.invalidations, c.retrains);
    l.exploreRatio = ratio(c.explorations, c.decisions);
    l.winsPerRetrain = ratio(c.wins, c.retrains);

    const Replay r = replayStages(*s, *picker, opt.seed);
    l.taskCopyNs = r.taskCopyNs;
    l.fingerprintNs = r.fingerprintNs;
    l.vectorNs = r.vectorNs;
    l.predictNs = r.predictNs;
    l.predictLabelUs = r.predictLabelUs;
    l.executeNs = r.executeNs;
    l.fitS = median(fitS);
    l.logoS = median(logoS);
    l.exactAccuracy = s->logoAccuracy;
    l.sweepUs = median(sweepUs);
    l.makeS = median(makeS);
    l.compileMs = median(compileMs);

    // The request's own stages: hits skip the model, misses run it.
    const bool missPath = spec.novelEvery > 0;
    const double stagesUs =
        (r.taskCopyNs + r.fingerprintNs + r.executeNs) * 1e-3 +
        (missPath ? r.predictLabelUs : 0.0);
    l.unattributedUs = e.latencyP50Us - stagesUs;
    l.traceOverheadFrac = 1.0 - figuresOf(traced).reqPerS / e.reqPerS;

    result.notes.push_back("stage ledger (replayed public calls, us per call)");
    auto row = [&](const char* name, double us) {
      result.notes.push_back("  " + std::string(name) +
                             std::string(32 - std::string(name).size(), ' ') +
                             fmt(us, 3));
    };
    row("Task copy", r.taskCopyNs * 1e-3);
    row("fingerprint", r.fingerprintNs * 1e-3);
    if (missPath) row("predictLabel", r.predictLabelUs);
    row("execute (TimeOnly)", r.executeNs * 1e-3);
    row("unattributed", l.unattributedUs);
    row("= call p50", e.latencyP50Us);
  }
  // Destroy the service (joining its workers) before reading peak RSS.
  s.reset();
  e.peakRssMb = peakRssMb();
  return result;
}

}  // namespace perfbench
