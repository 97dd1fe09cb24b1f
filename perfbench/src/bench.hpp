#pragma once

// Shared pieces of the perfbench runner: command-line options, the result
// record every workload fills, a fixed-memory latency histogram and the
// small timing helpers the workloads use.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keep `value` alive through the optimizer (a timed call whose result is
/// unused must still run).
template <class T>
inline void doNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Count-bound self-test mode: a fixed number of requests (or one
  /// pipeline) per run, so same-seed runs make the same decisions.
  bool shortRun = false;
  std::string gitSha = "unknown";
};

/// Log-linear latency histogram over nanoseconds: values below 128 ns get
/// their own bucket, larger ones 128 buckets per power of two (0.8%
/// resolution) up to 2^36 ns. Fixed size, so recording allocates nothing
/// and memory does not grow with the run length.
class LatencyHistogram {
public:
  void add(std::uint64_t ns) noexcept {
    ++counts_[bucketOf(ns)];
    ++count_;
  }
  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  std::uint64_t count() const noexcept { return count_; }

  /// Quantile q in [0, 1] in seconds, interpolated linearly by rank inside
  /// the bucket that holds it.
  double quantileSeconds(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_ - 1);
    double before = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const double c = static_cast<double>(counts_[b]);
      if (c == 0.0) continue;
      if (before + c > target) {
        const double frac = (target - before + 0.5) / c;
        const double lo = lowerBound(b);
        return (lo + frac * (lowerBound(b + 1) - lo)) * 1e-9;
      }
      before += c;
    }
    return lowerBound(kBuckets) * 1e-9;
  }

private:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr unsigned kMaxExp = 36;
  static constexpr std::size_t kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

  static std::size_t bucketOf(std::uint64_t ns) noexcept {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(ns));
    if (e >= kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (ns >> (e - kSubBits)) & (kSub - 1);
    return kSub + (e - kSubBits) * kSub + static_cast<std::size_t>(sub);
  }
  static double lowerBound(std::size_t b) noexcept {
    if (b < kSub) return static_cast<double>(b);
    const std::size_t e = (b - kSub) / kSub + kSubBits;
    const std::size_t sub = (b - kSub) % kSub;
    return std::ldexp(static_cast<double>(kSub + sub),
                      static_cast<int>(e - kSubBits));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The end-to-end metrics, in BENCHMARK.json order. Every workload fills
/// every field; perfbench/README.md says what each means on
/// offline_train, which serves no requests.
struct EndToEnd {
  double setupS = 0.0;
  double reqPerS = 0.0;
  double latencyP50Us = 0.0;
  double latencyP99Us = 0.0;
  double oracleFraction = 0.0;
  double speedupVsCpu = 0.0;
  double speedupVsGpu = 0.0;
  double pipelineS = 0.0;
  double peakRssMb = 0.0;

  std::vector<Metric> metrics() const {
    return {{"setup_s", setupS, "s"},
            {"req_per_s", reqPerS, "1/s"},
            {"latency_p50_us", latencyP50Us, "us"},
            {"latency_p99_us", latencyP99Us, "us"},
            {"oracle_fraction", oracleFraction, "ratio"},
            {"speedup_vs_cpu", speedupVsCpu, "x"},
            {"speedup_vs_gpu", speedupVsGpu, "x"},
            {"pipeline_s", pipelineS, "s"},
            {"peak_rss_mb", peakRssMb, "MiB"}};
  }
};

/// The per-layer metrics, in BENCHMARK.json order. A layer the workload
/// does not exercise reads 0 (the serve.* and adapt.* rows on
/// offline_train, for instance).
struct Layers {
  double cacheHitRatio = 0.0;
  double cacheEvictionsPerReq = 0.0;
  double inlineRatio = 0.0;
  double laneExhaustedPerReq = 0.0;
  double requestsPerBatch = 0.0;
  double feedbackRecordedRatio = 0.0;
  double retrainMs = 0.0;
  double invalidationsPerRetrain = 0.0;
  double fingerprintNs = 0.0;
  double predictLabelUs = 0.0;
  double unattributedUs = 0.0;
  double vectorNs = 0.0;
  double predictNs = 0.0;
  double fitS = 0.0;
  double logoS = 0.0;
  double exactAccuracy = 0.0;
  double taskCopyNs = 0.0;
  double executeNs = 0.0;
  double sweepUs = 0.0;
  double makeS = 0.0;
  double compileMs = 0.0;
  double exploreRatio = 0.0;
  double winsPerRetrain = 0.0;
  double traceOverheadFrac = 0.0;

  std::vector<Metric> metrics() const {
    return {{"serve.cache_hit_ratio", cacheHitRatio, "ratio"},
            {"serve.cache_evictions_per_req", cacheEvictionsPerReq, "1/req"},
            {"serve.inline_ratio", inlineRatio, "ratio"},
            {"serve.lane_exhausted_per_req", laneExhaustedPerReq, "1/req"},
            {"serve.requests_per_batch", requestsPerBatch, "req/batch"},
            {"serve.feedback_recorded_ratio", feedbackRecordedRatio, "ratio"},
            {"serve.retrain_ms", retrainMs, "ms"},
            {"serve.invalidations_per_retrain", invalidationsPerRetrain,
             "count"},
            {"serve.fingerprint_ns", fingerprintNs, "ns"},
            {"serve.predict_label_us", predictLabelUs, "us"},
            {"serve.unattributed_us", unattributedUs, "us"},
            {"features.vector_ns", vectorNs, "ns"},
            {"ml.predict_ns", predictNs, "ns"},
            {"ml.fit_s", fitS, "s"},
            {"ml.logo_s", logoS, "s"},
            {"ml.exact_accuracy", exactAccuracy, "ratio"},
            {"runtime.task_copy_ns", taskCopyNs, "ns"},
            {"runtime.execute_ns", executeNs, "ns"},
            {"runtime.sweep_us", sweepUs, "us"},
            {"suite.make_s", makeS, "s"},
            {"frontend.compile_ms", compileMs, "ms"},
            {"adapt.explore_ratio", exploreRatio, "ratio"},
            {"adapt.wins_per_retrain", winsPerRetrain, "count"},
            {"obs.trace_overhead_frac", traceOverheadFrac, "ratio"}};
  }
};

/// What one workload run reports. `e2e` is measured with tracing off;
/// `layers` is filled only by a traced run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t clients = 1;
  /// Order-independent digest of every (launch, decision) served; equal
  /// across same-seed count-bound runs.
  std::uint64_t digest = 0;
  EndToEnd e2e;
  Layers layers;
  /// Human-readable lines printed before the result (sample counts, the
  /// per-layer stage table, failed checks).
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    if (notes.size() < 64) notes.push_back("CHECK FAILED: " + why);
  }
};

Result runServing(const Options& options);
Result runOffline(const Options& options);

/// Median of `v` (by value: it is partially sorted). 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return 0.5 * (*mid + *std::max_element(v.begin(), mid));
}

/// Mean nanoseconds per call of `op` over inputs [0, n): the median of
/// five passes.
template <class Op>
double nsPerOp(std::size_t n, Op&& op) {
  std::vector<double> passes;
  for (int p = 0; p < 5; ++p) {
    const auto t = Clock::now();
    for (std::size_t i = 0; i < n; ++i) op(i);
    passes.push_back(secondsSince(t) * 1e9 / static_cast<double>(n));
  }
  return median(passes);
}

/// When this process started (first use is at static initialization).
Clock::time_point processStart();

/// Peak resident set of this process in MiB.
double peakRssMb();

std::string fmt(double value, int precision = 3);

}  // namespace perfbench
