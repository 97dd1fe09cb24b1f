// perfbench_runner — the partitioning service's benchmark.
//
// Usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                         [--short] [--git-sha SHA]
//
// Workloads: warm_hits, miss_stream, adapt_retrain (closed-loop clients
// driving tp::serve::PartitionService::call()) and offline_train (the
// paper's database -> model pipeline). With --trace 0 the result carries
// the end-to-end metrics; with --trace 1 the per-layer metrics. The last
// line of standard output is the result as one JSON object; the line
// before it, starting with "provenance ", says where it was measured.
// Exit status is 0 only when every output check passed.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/log.hpp"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point processStart() { return kProcessStart; }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace perfbench

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "warm_hits|miss_stream|adapt_retrain|offline_train --seed N "
               "--seconds S --trace 0|1 [--short] [--git-sha SHA]\n",
               why.c_str());
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--short") {
      opt.shortRun = true;
    } else if (arg == "--git-sha") {
      opt.gitSha = value();
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           jsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

void printTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  tp::common::setLogLevel(tp::common::LogLevel::Warn);
  const Options opt = parseArgs(argc, argv);

  Result result;
  try {
    if (opt.workload == "offline_train") {
      result = perfbench::runOffline(opt);
    } else if (opt.workload == "warm_hits" || opt.workload == "miss_stream" ||
               opt.workload == "adapt_retrain") {
      result = perfbench::runServing(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }

  const double failedFrac =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("workload %s  seed %llu  clients %zu  %s\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), result.clients,
              opt.trace ? "traced" : "untraced");
  for (const auto& note : result.notes) std::printf("%s\n", note.c_str());
  std::printf("  %-32s %16llu / %llu  (failed_frac %.6g)\n",
              "failed / attempted",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted), failedFrac);
  std::printf("  %-32s %016llx\n", "decision digest",
              static_cast<unsigned long long>(result.digest));
  printTable("end-to-end", result.e2e.metrics());
  if (opt.trace) printTable("per-layer", result.layers.metrics());

  const bool ok = result.correct && result.failed == 0 && result.attempted > 0;
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"clients\": %zu, "
      "\"seconds\": %s, \"short\": %s, \"trace\": %s, \"nproc\": %ld, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"tp_tracing\": \"%s\", "
      "\"git_sha\": \"%s\", \"digest\": \"%016llx\", \"failed_frac\": %s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      result.clients, jsonNumber(opt.seconds).c_str(),
      opt.shortRun ? "true" : "false", opt.trace ? "true" : "false",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      PERFBENCH_TRACING, opt.gitSha.c_str(),
      static_cast<unsigned long long>(result.digest),
      jsonNumber(failedFrac).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      ok ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      metricsJson(opt.trace ? result.layers.metrics() : result.e2e.metrics())
          .c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
