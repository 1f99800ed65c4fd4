// Micro-benchmark for the SSPA flow kernel: the hierarchical ring relax
// across problem sizes and customer distributions.
//
// Prints a human-readable table and writes a machine-readable
// `BENCH_sspa.json` (array of runs: n_q, n_p, k, mode, dist, relaxes,
// pruned, distances_computed, cells_pruned, pops, rings, cells, coarse
// tail/descent counters, millis, cost, certified) so successive PRs can track the
// perf trajectory — CI gates the distances_computed column (and the
// hierarchical-grid counters) via tools/bench_diff.py so the relax scan's
// quadratic distance term cannot silently regress. Usage:
//
//   bench_micro_flow [--out BENCH_sspa.json] [--max-np N] [--dense-max-np N]
//                    [--threads N] [--repeat R] [--best-of B]
//
// Every row is the default relax (mode "grid"). --dense-max-np (default
// 1000) additionally solves the shapes up to N customers with the
// reference scan (SspaConfig::use_grid = false) as an unrecorded cost
// cross-check; the bench exits 1 on any mismatch. The reference is
// quadratic, so keep N small. Every row's `certified` is CertifyOptimal
// (flow/oracle.h) of its solve's matching and exported duals, untimed;
// tools/bench_diff.py fails on `false`. --repeat replicates every solve R times and
// --threads drives the replicas through the concurrent QueryRunner
// (src/runtime) over one shared grid; reported counters stay per-solve
// (replicas are bit-identical), and a throughput line is printed per run.
// The defaults (1/1) keep the direct-solve path. --best-of B (default 3)
// re-runs every direct solve B times and reports the minimum wall clock —
// counters are deterministic, the clock is not.
//
// Workloads: the uniform sweep covers the historical size trajectory; on
// top of it the 10k-customer shape is re-run under clustered and skewed
// customer distributions, where the hierarchy's per-region split matters.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "flow/oracle.h"
#include "flow/sspa.h"
#include "gen/generator.h"
#include "runtime/query_runner.h"

namespace {

// Skewed customers: 90% of the mass packed into a small hot rectangle at
// the origin, the rest uniform over the [0,1000]^2 world. This is the
// adversarial case for a flat uniform grid (one cell region holds nearly
// everything) and the case the hierarchy's per-region split targets.
// Mirrors tests/test_util.h SkewedPoints; benches cannot include tests/.
std::vector<cca::Point> SkewedPoints(std::size_t n, std::uint64_t seed) {
  cca::Rng rng(seed);
  std::vector<cca::Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.9) {
      pts.push_back(cca::Point{rng.Uniform(0.0, 80.0), rng.Uniform(0.0, 50.0)});
    } else {
      pts.push_back(cca::Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
    }
  }
  return pts;
}

// Builds the benchmark instance for one (shape, distribution) pair.
// `dist` is "uniform" or "clustered" (both via the road-network generator,
// seeds 5/6 as always) or "skewed" (uniform providers over skewed
// customers — providers everywhere, demand packed into the hot box).
cca::Problem MakeBenchProblem(std::size_t nq, std::size_t np, std::int32_t k, const char* dist) {
  static cca::RoadNetwork net = cca::DefaultNetwork(99);
  cca::DatasetSpec q_spec;
  q_spec.count = nq;
  q_spec.seed = 5;
  q_spec.distribution = cca::PointDistribution::kUniform;
  cca::DatasetSpec p_spec;
  p_spec.count = np;
  p_spec.seed = 6;
  p_spec.distribution = cca::PointDistribution::kUniform;
  if (std::strcmp(dist, "clustered") == 0) {
    q_spec.distribution = cca::PointDistribution::kClustered;
    p_spec.distribution = cca::PointDistribution::kClustered;
  }
  cca::Problem problem = cca::MakeProblem(net, q_spec, p_spec, cca::FixedCapacities(nq, k));
  if (std::strcmp(dist, "skewed") == 0) {
    problem.customers = SkewedPoints(np, /*seed=*/6);
  }
  return problem;
}

struct Run {
  std::size_t nq;
  std::size_t np;
  std::int32_t k;
  const char* mode;
  const char* dist;
  cca::SspaResult result;
  bool certified = false;
};

void PrintRow(const Run& r) {
  std::printf("%6zu %8zu %4d %-9s %-9s %14llu %14llu %12llu %12llu %10llu %10llu %10llu "
              "%8llu %8llu %10.1f %12.1f %5s\n",
              r.nq, r.np, r.k, r.mode, r.dist,
              static_cast<unsigned long long>(r.result.metrics.dijkstra_relaxes),
              static_cast<unsigned long long>(r.result.metrics.relaxes_pruned),
              static_cast<unsigned long long>(r.result.metrics.distances_computed),
              static_cast<unsigned long long>(r.result.metrics.dijkstra_pops),
              static_cast<unsigned long long>(r.result.metrics.grid_rings_scanned),
              static_cast<unsigned long long>(r.result.metrics.grid_cursor_cells),
              static_cast<unsigned long long>(r.result.metrics.cells_pruned),
              static_cast<unsigned long long>(r.result.metrics.coarse_tails_pruned),
              static_cast<unsigned long long>(r.result.metrics.coarse_cells_descended),
              r.result.metrics.cpu_millis, r.result.matching.cost(), r.certified ? "yes" : "NO");
  std::fflush(stdout);
}

// Runs `config` directly (threads == 1, repeat == 1: the direct-solve
// path, re-timed best-of-`best_of`) or as `repeat` replicas through a
// QueryRunner over `index`. The returned result is the first replica's
// (all replicas are bit-identical — the runner's determinism contract);
// throughput is printed per run.
cca::SspaResult RunSspa(const cca::Problem& problem, const cca::SspaConfig& config,
                        const cca::SharedIndex& index, std::size_t threads, std::size_t repeat,
                        std::size_t best_of) {
  if (threads <= 1 && repeat <= 1) {
    // Best-of-N: keep the first solve's counters (deterministic re-runs of
    // the same code, so every repetition agrees — enforced below) and the
    // minimum wall clock across repetitions (the only noisy column).
    cca::SspaResult result = cca::SolveSspa(problem, config);
    for (std::size_t rep = 1; rep < best_of; ++rep) {
      cca::SspaResult again = cca::SolveSspa(problem, config);
      if (std::abs(again.matching.cost() - result.matching.cost()) >
              1e-9 * std::max(1.0, result.matching.cost()) ||
          again.metrics.dijkstra_pops != result.metrics.dijkstra_pops ||
          again.metrics.augmentations != result.metrics.augmentations) {
        std::fprintf(stderr, "NONDETERMINISTIC SOLVE across best-of repetitions\n");
        std::exit(1);
      }
      result.metrics.cpu_millis = std::min(result.metrics.cpu_millis, again.metrics.cpu_millis);
    }
    return result;
  }
  std::vector<cca::QuerySpec> batch(repeat);
  for (auto& spec : batch) {
    spec.solver = cca::QuerySolver::kSspa;
    spec.problem = problem;
    spec.sspa = config;
  }
  cca::QueryRunner runner(&index, threads);
  cca::Timer timer;
  std::vector<cca::QueryOutcome> outcomes = runner.Run(batch);
  const double wall = timer.ElapsedMillis();
  std::printf("  [%zu replicas x %zu threads: %.1f ms wall, %.1f solves/s]\n", repeat, threads,
              wall, wall > 0.0 ? 1000.0 * static_cast<double>(repeat) / wall : 0.0);
  cca::SspaResult result;
  result.matching = std::move(outcomes.front().matching);
  result.metrics = outcomes.front().metrics;
  // QueryOutcome carries no duals; a direct solve's certify the replica's
  // matching, which is bit-identical to it.
  result.potentials = cca::SolveSspa(problem, config).potentials;
  result.conceptual_edges =
      static_cast<std::uint64_t>(problem.providers.size()) * problem.customers.size();
  return result;
}

void WriteJson(const std::vector<Run>& runs, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    const auto& m = r.result.metrics;
    std::fprintf(f,
                 "  {\"n_q\": %zu, \"n_p\": %zu, \"k\": %d, \"mode\": \"%s\", \"dist\": \"%s\", "
                 "\"relaxes\": %llu, \"relaxes_pruned\": %llu, "
                 "\"distances_computed\": %llu, \"cells_pruned\": %llu, "
                 "\"coarse_tails_pruned\": %llu, "
                 "\"coarse_cells_descended\": %llu, \"hier_splits\": %llu, \"pops\": %llu, "
                 "\"grid_rings_scanned\": %llu, \"grid_cursor_cells\": %llu, "
                 "\"shared_frontier_cell_fetches\": %llu, \"shared_frontier_fanout\": %llu, "
                 "\"augmentations\": %llu, "
                 "\"millis\": %.3f, \"cost\": %.3f, \"certified\": %s}%s\n",
                 r.nq, r.np, r.k, r.mode, r.dist,
                 static_cast<unsigned long long>(m.dijkstra_relaxes),
                 static_cast<unsigned long long>(m.relaxes_pruned),
                 static_cast<unsigned long long>(m.distances_computed),
                 static_cast<unsigned long long>(m.cells_pruned),
                 static_cast<unsigned long long>(m.coarse_tails_pruned),
                 static_cast<unsigned long long>(m.coarse_cells_descended),
                 static_cast<unsigned long long>(m.hier_splits),
                 static_cast<unsigned long long>(m.dijkstra_pops),
                 static_cast<unsigned long long>(m.grid_rings_scanned),
                 static_cast<unsigned long long>(m.grid_cursor_cells),
                 static_cast<unsigned long long>(m.shared_frontier_cell_fetches),
                 static_cast<unsigned long long>(m.shared_frontier_fanout),
                 static_cast<unsigned long long>(m.augmentations), m.cpu_millis,
                 r.result.matching.cost(), r.certified ? "true" : "false",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %zu runs to %s\n", runs.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sspa.json";
  std::size_t max_np = 20000;
  std::size_t dense_max_np = 1000;
  std::size_t threads = 1;
  std::size_t repeat = 1;
  std::size_t best_of = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--out") {
      out_path = next();
    } else if (flag == "--max-np") {
      max_np = static_cast<std::size_t>(std::atoll(next()));
    } else if (flag == "--dense-max-np") {
      dense_max_np = static_cast<std::size_t>(std::atoll(next()));
    } else if (flag == "--threads") {
      threads = static_cast<std::size_t>(std::atoll(next()));
    } else if (flag == "--repeat") {
      repeat = static_cast<std::size_t>(std::atoll(next()));
    } else if (flag == "--best-of") {
      best_of = static_cast<std::size_t>(std::atoll(next()));
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_flow [--out FILE] [--max-np N] [--dense-max-np N] "
                   "[--threads N] [--repeat R] [--best-of B]\n");
      return 2;
    }
  }
  if (repeat < 1) repeat = 1;
  if (best_of < 1) best_of = 1;
  if (threads > 1 && repeat == 1) repeat = threads;  // give the pool work to share

  struct Shape {
    std::size_t nq, np;
    std::int32_t k;
  };
  const Shape shapes[] = {
      {10, 200, 10},  {20, 500, 10},   {50, 1000, 10},
      {50, 5000, 40}, {100, 10000, 40}, {100, 20000, 80},
  };

  std::printf("%6s %8s %4s %-9s %-9s %14s %14s %12s %12s %10s %10s %10s %8s %8s %10s %12s %5s\n",
              "nq", "np", "k", "mode", "dist", "relaxes", "pruned", "distances", "pops", "rings",
              "cells", "cellspr", "ctailpr", "cdesc", "millis", "cost", "cert");
  std::vector<Run> runs;
  const auto run_grid = [&](const Shape& s, const char* dist) {
    const cca::Problem problem = MakeBenchProblem(s.nq, s.np, s.k, dist);
    // Shared read-only relax grid for the runner path (SSPA never touches
    // the R-tree, so skip the bulk load).
    cca::SharedIndex::Options index_options;
    index_options.build_customer_db = false;
    const cca::SharedIndex index(problem.customers, index_options);
    runs.push_back(Run{s.nq, s.np, s.k, "grid", dist,
                       RunSspa(problem, cca::SspaConfig{}, index, threads, repeat, best_of)});
    Run& run = runs.back();
    run.certified = cca::CertifyOptimal(problem, run.result.matching, run.result.potentials).ok();
    PrintRow(run);
    if (s.np > dense_max_np) return true;
    cca::SspaConfig reference;
    reference.use_grid = false;
    const double want = cca::SolveSspa(problem, reference).matching.cost();
    const double got = runs.back().result.matching.cost();
    if (std::abs(got - want) > 1e-6 * std::max(1.0, want)) {
      std::fprintf(stderr, "COST MISMATCH grid=%.6f reference=%.6f at nq=%zu np=%zu %s\n", got,
                   want, s.nq, s.np, dist);
      return false;
    }
    return true;
  };
  for (const Shape& s : shapes) {
    if (s.np <= max_np && !run_grid(s, "uniform")) return 1;
  }
  // Non-uniform workloads at the acceptance shape: the hierarchy's
  // adaptive split only matters when occupancy is uneven.
  const Shape skew_shape{100, 10000, 40};
  if (skew_shape.np <= max_np) {
    for (const char* dist : {"clustered", "skewed"}) {
      if (!run_grid(skew_shape, dist)) return 1;
    }
  }
  WriteJson(runs, out_path);
  return 0;
}
