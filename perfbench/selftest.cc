// The benchmark's own tests: the exact-percentile helper against a sorted
// reference, and seed determinism of every workload (the same seed gives
// the same inputs and identical deterministic counters; another seed gives
// other inputs). Exit code 0 when every check passes.
//
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

// Reference nearest-rank percentile, by counting: the smallest sample v
// with |{s <= v}| >= q * n.
double ReferencePercentile(const std::vector<double>& samples, double q) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double need = q * static_cast<double>(samples.size());
  for (const double v : sorted) {
    const auto at_or_below = std::count_if(samples.begin(), samples.end(),
                                           [v](double s) { return s <= v; });
    if (static_cast<double>(at_or_below) >= need - 1e-9) return v;
  }
  return sorted.back();
}

void TestPercentile() {
  std::mt19937_64 gen(12345);
  std::lognormal_distribution<double> latency(1.0, 0.8);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 1237u}) {
    std::vector<double> samples(n);
    for (double& s : samples) s = latency(gen);
    if (n > 3) samples[n / 2] = samples[n / 3];  // ties
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const double got = perfbench::Percentile(samples, q);
      const double want = ReferencePercentile(samples, q);
      Expect(got == want, "percentile n=" + std::to_string(n) + " q=" + std::to_string(q));
    }
  }
  Expect(perfbench::Percentile({}, 0.5) == 0.0, "percentile of an empty sample");
  Expect(perfbench::Percentile({3.0, 1.0, 2.0}, 0.0) == 1.0, "p0 is the minimum");
  Expect(perfbench::Percentile({3.0, 1.0, 2.0}, 1.0) == 3.0, "p100 is the maximum");
}

perfbench::RunResult Run(perfbench::WorkloadFn run, std::uint64_t seed) {
  perfbench::RunConfig config;
  config.seed = seed;
  config.max_ops = 24;
  return run(config);
}

void TestDeterminism(const char* name) {
  const perfbench::WorkloadFn run = perfbench::FindWorkload(name);
  const perfbench::RunResult a = Run(run, 11);
  const perfbench::RunResult b = Run(run, 11);
  const perfbench::RunResult c = Run(run, 12);
  const std::string w = name;
  Expect(a.failed == 0 && b.failed == 0 && c.failed == 0, w + ": every operation correct");
  Expect(a.attempted >= 24, w + ": ran the requested operations");
  Expect(a.input_fingerprint == b.input_fingerprint, w + ": same seed, same inputs");
  Expect(a.input_fingerprint != c.input_fingerprint, w + ": other seed, other inputs");
  // Page faults on the R-tree slice depend on how concurrent queries
  // interleave in the shared buffer pool; every other counter is exact.
  auto deterministic = [](std::map<std::string, std::uint64_t> counters) {
    counters.erase("page_faults");
    return counters;
  };
  Expect(deterministic(a.counters) == deterministic(b.counters),
         w + ": same seed, identical counters");
  Expect(a.counters.at("dijkstra_pops") > 0, w + ": counters were recorded");
  Expect(a.counters != c.counters, w + ": other seed, other counters");
}

}  // namespace

int main() {
  TestPercentile();
  for (const char* name : {"dispatch", "batch-solve", "whatif"}) TestDeterminism(name);
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
