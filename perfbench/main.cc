// Repository benchmark binary: runs one workload for a fixed time and prints
// its metrics, ending with one JSON result line. perfbench/run.py builds it
// and passes the arguments through; README.md describes the workloads.
//
//   perfbench --workload dispatch|batch-solve|whatif --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced variant
// and prints the per-layer metrics. Exit code 1 when any operation failed
// its correctness check, 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dispatch|batch-solve|whatif --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
  return 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintMetrics(const perfbench::MetricMap& metrics) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                value, m.unit.c_str());
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds > 0.0;
    } else if (flag == "--trace") {
      const std::string v = value;
      have_trace = v == "0" || v == "1";
      config.trace = v == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  const perfbench::WorkloadFn run = perfbench::FindWorkload(workload);
  if (run == nullptr || !have_seed || !have_seconds || !have_trace) return Usage();

  perfbench::RunResult result = run(config);
  result.end_to_end["peak_rss_mb"] = perfbench::Metric{PeakRssMb(), "MB"};

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  const perfbench::MetricMap& shown = config.trace ? result.per_layer : result.end_to_end;
  for (const auto& [name, m] : shown) {
    std::printf("  %-32s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  PrintMetrics(shown);
  std::printf("}}\n");
  return correct ? 0 : 1;
}
