// Shared experiment harness for the paper-reproduction benchmarks.
//
// Every figure binary builds workloads exactly as Section 5.1 prescribes
// (road-network data, 1 KB pages, LRU buffer = 1% of the tree, I/O charged
// at 10 ms per fault) and prints one table per paper figure. Dataset sizes
// default to 1/10th of the paper's (the capacity-to-cardinality ratios --
// which determine every crossover -- are preserved); set CCA_BENCH_SCALE=1
// to run the paper-scale experiments.
#ifndef CCA_BENCH_BENCH_UTIL_H_
#define CCA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/approx.h"
#include "core/customer_db.h"
#include "core/exact.h"
#include "gen/generator.h"

namespace cca::bench {

// Scale factor relative to the PAPER's dataset sizes. Default 0.05.
inline double Scale() {
  if (const char* env = std::getenv("CCA_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0) return s;
  }
  return 0.05;
}

// The paper fine-tunes RIA's range increment to theta = 0.8 *for
// |P| = 100K customers on the [0,1000]^2 world*. theta tracks the customer
// NN-distance scale, which grows like 1/sqrt(density); scaled-down
// datasets therefore get a proportionally larger increment.
inline double DensityScaledTheta(std::size_t np) {
  return 0.8 * std::sqrt(100000.0 / static_cast<double>(np));
}

// Default solver configuration for a workload with |P| = np.
// Nearest-rank percentile: the smallest sample with at least a fraction p
// of the samples at or below it (0 for no samples). Exact, unlike the
// Histogram's bucket bounds; the serving benches report it.
inline double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(std::clamp(p, 0.0, 1.0) * n));
  return samples[rank == 0 ? 0 : rank - 1];
}

inline ExactConfig DefaultExactConfig(std::size_t np) {
  ExactConfig config;
  config.theta = DensityScaledTheta(np);
  return config;
}

inline std::size_t Scaled(std::size_t paper_size) {
  const double s = Scale();
  return static_cast<std::size_t>(paper_size * s + 0.5);
}

struct Workload {
  Problem problem;
  std::unique_ptr<CustomerDb> db;
};

inline Workload BuildWorkload(std::size_t nq, std::size_t np, PointDistribution dist_q,
                              PointDistribution dist_p, const std::vector<std::int32_t>& caps,
                              std::uint64_t seed) {
  static RoadNetwork network = DefaultNetwork(42);
  DatasetSpec q_spec;
  q_spec.count = nq;
  q_spec.distribution = dist_q;
  q_spec.seed = seed * 2 + 1;
  DatasetSpec p_spec;
  p_spec.count = np;
  p_spec.distribution = dist_p;
  p_spec.seed = seed * 2 + 2;
  // Both sides live in the same city: clustered providers and clustered
  // customers concentrate around the same hotspots (see DatasetSpec).
  q_spec.cluster_seed = p_spec.cluster_seed = seed * 2 + 777;
  Workload w;
  w.problem = MakeProblem(network, q_spec, p_spec, caps);
  CustomerDb::Options options;
  options.rtree.page_size = 1024;
  options.buffer_fraction = 0.01;
  // The paper's absolute buffer at |P|=100K is ~38 pages; keep a floor so
  // scaled-down trees are not left with a 1-2 page pathological buffer.
  options.min_buffer_pages = 16;
  w.db = std::make_unique<CustomerDb>(w.problem.customers, options);
  return w;
}

// Swaps the capacity vector of an existing workload in place (capacity
// sweeps reuse one dataset, exactly like the paper's Figure 9/15 setup).
inline void SetCapacities(Workload* w, const std::vector<std::int32_t>& caps) {
  for (std::size_t i = 0; i < w->problem.providers.size(); ++i) {
    w->problem.providers[i].capacity = caps[i];
  }
}

inline Workload BuildWorkload(std::size_t nq, std::size_t np, std::int32_t k,
                              std::uint64_t seed,
                              PointDistribution dist_q = PointDistribution::kClustered,
                              PointDistribution dist_p = PointDistribution::kClustered) {
  return BuildWorkload(nq, np, dist_q, dist_p,
                       FixedCapacities(nq, k), seed);
}

// --- printing ----------------------------------------------------------------

inline void Banner(const std::string& figure, const std::string& description,
                   const std::string& paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("Paper shape to match: %s\n", paper_shape.c_str());
  std::printf("Scale: %.3gx of the paper's dataset sizes (CCA_BENCH_SCALE)\n", Scale());
  std::printf("==============================================================\n");
}

inline void ExactHeader() {
  std::printf("%-10s %-6s %12s %10s %10s %10s %10s\n", "setting", "algo", "|Esub|", "cpu_s",
              "io_s", "total_s", "cost");
}

inline void ExactRow(const std::string& setting, const char* algo, const ExactResult& r) {
  std::printf("%-10s %-6s %12llu %10.2f %10.2f %10.2f %10.0f\n", setting.c_str(), algo,
              static_cast<unsigned long long>(r.metrics.edges_inserted),
              r.metrics.cpu_millis / 1000.0, r.metrics.io_millis() / 1000.0,
              r.metrics.total_millis() / 1000.0, r.matching.cost());
  std::fflush(stdout);
}

inline void ApproxHeader() {
  std::printf("%-10s %-6s %10s %10s %10s %10s %8s\n", "setting", "algo", "quality", "cpu_s",
              "io_s", "total_s", "groups");
}

inline void ApproxRow(const std::string& setting, const char* algo, const ApproxResult& r,
                      double optimal_cost) {
  std::printf("%-10s %-6s %10.4f %10.2f %10.2f %10.2f %8zu\n", setting.c_str(), algo,
              r.matching.cost() / optimal_cost, r.metrics.cpu_millis / 1000.0,
              r.metrics.io_millis() / 1000.0, r.metrics.total_millis() / 1000.0, r.num_groups);
  std::fflush(stdout);
}

// Cools the buffer before a measured run so every algorithm starts cold.
template <typename Fn>
auto ColdRun(CustomerDb* db, Fn&& fn) {
  db->CoolDown();
  return fn();
}

// --- machine-readable trajectory ---------------------------------------------

// Collects one JSON object per solver run and writes a `BENCH_*.json`
// array on Write(), mirroring bench_micro_flow's format so successive PRs
// can diff the perf trajectory (tools/bench_diff.py).
class JsonTrajectory {
 public:
  explicit JsonTrajectory(std::string path) : path_(std::move(path)) {}

  // `cpu_ms_spread` is (max - min) / min over the repeats behind r's
  // best-of cpu_millis (RunExactSuite).
  void AddExact(const std::string& setting, const char* algo, const ExactResult& r,
                double cpu_ms_spread) {
    char buf[832];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"setting\": \"%s\", \"algo\": \"%s\", \"esub\": %llu, "
        "\"node_accesses\": %llu, \"grid_cursor_cells\": %llu, "
        "\"shared_frontier_cell_fetches\": %llu, \"shared_frontier_fanout\": %llu, "
        "\"index_node_accesses\": %llu, \"page_faults\": %llu, "
        "\"nn_searches\": %llu, \"invalid_paths\": %llu, "
        "\"cpu_ms\": %.3f, \"cpu_ms_spread\": %.3f, \"io_ms\": %.3f, \"cost\": %.3f}",
        setting.c_str(), algo, static_cast<unsigned long long>(r.metrics.edges_inserted),
        static_cast<unsigned long long>(r.metrics.node_accesses),
        static_cast<unsigned long long>(r.metrics.grid_cursor_cells),
        static_cast<unsigned long long>(r.metrics.shared_frontier_cell_fetches),
        static_cast<unsigned long long>(r.metrics.shared_frontier_fanout),
        static_cast<unsigned long long>(r.metrics.index_node_accesses),
        static_cast<unsigned long long>(r.metrics.page_faults),
        static_cast<unsigned long long>(r.metrics.nn_searches),
        static_cast<unsigned long long>(r.metrics.invalid_paths), r.metrics.cpu_millis,
        cpu_ms_spread, r.metrics.io_millis(), r.matching.cost());
    rows_.emplace_back(buf);
  }

  void Write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
      return;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(), i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("\nwrote %zu runs to %s\n", rows_.size(), path_.c_str());
  }

 private:
  std::string path_;
  std::vector<std::string> rows_;
};

// Runs one cold solve kRepeats times and returns the first result with
// cpu_millis set to the best of the repeats; *spread gets
// (max - min) / min. The solvers are deterministic, so a counter or cost
// that differs between repeats is a bug, not noise: the bench exits 1.
inline constexpr int kRepeats = 3;

template <typename Fn>
ExactResult BestOfRepeats(CustomerDb* db, const std::string& setting, const char* algo,
                          Fn&& solve, double* spread) {
  ExactResult first = ColdRun(db, solve);
  double lo = first.metrics.cpu_millis, hi = lo;
  for (int i = 1; i < kRepeats; ++i) {
    const ExactResult again = ColdRun(db, solve);
    const Metrics& a = first.metrics;
    const Metrics& b = again.metrics;
#define CCA_BENCH_SAME_COUNTER(field, label)                                          \
  if (a.field != b.field) {                                                           \
    std::fprintf(stderr, "%s %s: %s differs between repeats (%llu vs %llu)\n",         \
                 setting.c_str(), algo, label, static_cast<unsigned long long>(a.field), \
                 static_cast<unsigned long long>(b.field));                            \
    std::exit(1);                                                                     \
  }
    CCA_METRICS_COUNTER_FIELDS(CCA_BENCH_SAME_COUNTER)
#undef CCA_BENCH_SAME_COUNTER
    if (again.matching.cost() != first.matching.cost()) {
      std::fprintf(stderr, "%s %s: cost differs between repeats (%.17g vs %.17g)\n",
                   setting.c_str(), algo, first.matching.cost(), again.matching.cost());
      std::exit(1);
    }
    lo = std::min(lo, b.cpu_millis);
    hi = std::max(hi, b.cpu_millis);
  }
  first.metrics.cpu_millis = lo;
  *spread = lo > 0.0 ? (hi - lo) / lo : 0.0;
  return first;
}

// Runs the standard exact-solver suite (RIA, NIA, IDA, grid-backed IDA,
// batched-frontier IDA) on one workload setting, printing table rows and
// appending to the JSON trajectory. Shared by the figure benches so the
// row schema cannot drift between BENCH_fig*.json files. Each row is the
// best of kRepeats cold runs, written with its spread.
inline void RunExactSuite(Workload* w, const std::string& setting, std::size_t np,
                          JsonTrajectory* json) {
  ExactConfig grid_config = DefaultExactConfig(np);
  grid_config.discovery_backend = DiscoveryBackend::kGrid;
  ExactConfig batched_config = DefaultExactConfig(np);
  batched_config.discovery_backend = DiscoveryBackend::kGridBatched;
  const auto record = [&](const char* algo, auto&& solve) {
    double spread = 0.0;
    const ExactResult r = BestOfRepeats(w->db.get(), setting, algo, solve, &spread);
    ExactRow(setting, algo, r);
    json->AddExact(setting, algo, r, spread);
  };
  record("RIA", [&] { return SolveRia(w->problem, w->db.get(), DefaultExactConfig(np)); });
  record("NIA", [&] { return SolveNia(w->problem, w->db.get(), DefaultExactConfig(np)); });
  record("IDA", [&] { return SolveIda(w->problem, w->db.get(), DefaultExactConfig(np)); });
  record("IDA-G", [&] { return SolveIda(w->problem, w->db.get(), grid_config); });
  // IDA-B: same memory-resident grid, but Hilbert groups share one
  // frontier — grid_cursor_cells records only first materialisations.
  record("IDA-B", [&] { return SolveIda(w->problem, w->db.get(), batched_config); });
}

}  // namespace cca::bench

#endif  // CCA_BENCH_BENCH_UTIL_H_
