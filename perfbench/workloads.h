// The benchmark's three workloads (README.md says why each exists and which
// layer metric should move which end-to-end metric). Each one generates its
// inputs from the seed, sets up several times, runs a closed loop for the
// configured time, checks every operation, and fills a RunResult.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: the first half of the timed phase runs untraced, the second
  // half records spans and replays the geo constructors, and per-layer
  // metrics come from the traced half (bench.trace_overhead compares them).
  bool trace = false;
  // Stop after this many operations instead of after `seconds` (0 = time
  // bound only; the tests use it to get the same operations on every run).
  std::size_t max_ops = 0;
  // Where the traced run writes its Chrome trace; empty = do not write.
  std::string trace_out;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap end_to_end;
  MetricMap per_layer;
  // Every solver counter summed over the counted prefix (Metrics field name
  // -> value): the determinism the tests assert.
  std::map<std::string, std::uint64_t> counters;
  // Hash of the generated inputs.
  std::uint64_t input_fingerprint = 0;
  // Human-readable lines printed before the result line (sample counts,
  // sizes, absent metrics, the per-span self-time table).
  std::vector<std::string> notes;
};

using WorkloadFn = RunResult (*)(const RunConfig&);

RunResult RunDispatch(const RunConfig& config);
RunResult RunBatchSolve(const RunConfig& config);
RunResult RunWhatif(const RunConfig& config);

// Workload name -> runner ("dispatch", "batch-solve", "whatif").
WorkloadFn FindWorkload(const std::string& name);

// Every per-layer metric the traced run prints, with its unit.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
