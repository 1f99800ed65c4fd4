// QPS/latency benchmark for the concurrent query engine (src/runtime).
//
// Drives a mixed workload — IDA/NIA/RIA/SSPA over the grid backends plus an
// R-tree-grouped slice — through QueryRunner at increasing thread counts,
// all over one SharedIndex. Each thread count reruns the *same* batch, and
// every multi-threaded outcome is checked bit-identical (cost, pops,
// augmentations, relaxes) against the 1-thread run: concurrency must buy
// throughput only, never different answers. Page faults are exempt on the
// R-tree slice — the shared LRU sees a different interleaving — which is
// the one documented concurrency-visible counter (src/core/README.md).
//
// Prints a table and writes BENCH_qps.json: one row per (workload shape,
// thread count) with reported timing and gated deterministic columns
// (cost, pops, relaxes, esub, aug). Timing is never gated: qps, and the
// per-query latency percentiles over `samples` queries, exact nearest-rank
// values over the row's samples (p999 is written only from
// Histogram::kMinP999Samples samples up). Speedup over 1 thread is
// reported but not enforced here: CI
// containers pin few cores, so the scaling claim is checked where cores
// exist.
//
//   bench_engine_qps [--out BENCH_qps.json] [--max-np N] [--threads CSV]
//                    [--trace-out FILE]   (tracing-enabled builds only)
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/timer.h"
#include "common/trace.h"
#include "gen/generator.h"
#include "runtime/query_runner.h"

namespace {

struct Shape {
  std::size_t nq, np, queries;
  std::int32_t k;
};

// One mixed batch: `queries` provider fleets (distinct seeds) over the
// shared customer set, rotating through the engine's solver x backend mix;
// 1/8 of the queries exercise the paged R-tree path.
std::vector<cca::QuerySpec> MakeBatch(const cca::RoadNetwork& net,
                                      const std::vector<cca::Point>& customers, const Shape& s) {
  std::vector<cca::QuerySpec> batch;
  batch.reserve(s.queries);
  for (std::size_t i = 0; i < s.queries; ++i) {
    cca::DatasetSpec q_spec;
    q_spec.count = s.nq;
    q_spec.seed = 1000 + i;
    q_spec.distribution = cca::PointDistribution::kUniform;
    const std::vector<cca::Point> positions = cca::GeneratePoints(net, q_spec);

    cca::QuerySpec spec;
    spec.problem.customers = customers;
    spec.problem.providers.reserve(s.nq);
    for (const cca::Point& pos : positions) {
      spec.problem.providers.push_back(cca::Provider{pos, s.k});
    }
    switch (i % 8) {
      case 0:
      case 5:
        spec.solver = cca::QuerySolver::kIda;
        spec.exact.discovery_backend = cca::DiscoveryBackend::kGrid;
        break;
      case 1:
        spec.solver = cca::QuerySolver::kIda;
        spec.exact.discovery_backend = cca::DiscoveryBackend::kGridBatched;
        break;
      case 2:
        spec.solver = cca::QuerySolver::kNia;
        spec.exact.discovery_backend = cca::DiscoveryBackend::kGrid;
        break;
      case 3:
      case 6:
        spec.solver = cca::QuerySolver::kSspa;
        break;
      case 4:
        spec.solver = cca::QuerySolver::kRia;
        spec.exact.discovery_backend = cca::DiscoveryBackend::kGrid;
        break;
      default:  // 7: the paged path
        spec.solver = cca::QuerySolver::kIda;
        spec.exact.discovery_backend = cca::DiscoveryBackend::kRTreeGrouped;
        break;
    }
    batch.push_back(std::move(spec));
  }
  return batch;
}

bool UsesRTree(const cca::QuerySpec& spec) {
  return spec.solver != cca::QuerySolver::kSspa &&
         (spec.exact.discovery_backend == cca::DiscoveryBackend::kRTreeGrouped ||
          spec.exact.discovery_backend == cca::DiscoveryBackend::kAuto);
}

struct Row {
  Shape shape;
  std::size_t threads;
  double wall_ms = 0.0;
  double qps = 0.0;
  std::uint64_t samples = 0;  // per-query latencies behind the percentiles
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;  // written only at >= Histogram::kMinP999Samples samples
  double mean_ms = 0.0;
  double speedup = 1.0;
  double cost = 0.0;  // summed over the batch
  cca::Metrics totals;
};

// Bit-identical check of a multi-threaded run against the serial outcomes.
bool SameAnswers(const std::vector<cca::QuerySpec>& batch,
                 const std::vector<cca::QueryOutcome>& serial,
                 const std::vector<cca::QueryOutcome>& parallel, std::size_t threads) {
  bool ok = true;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const cca::Metrics& a = serial[i].metrics;
    const cca::Metrics& b = parallel[i].metrics;
    if (serial[i].matching.cost() != parallel[i].matching.cost() ||
        a.dijkstra_pops != b.dijkstra_pops || a.augmentations != b.augmentations ||
        a.dijkstra_relaxes != b.dijkstra_relaxes || a.edges_inserted != b.edges_inserted) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION query=%zu threads=%zu: cost %.17g vs %.17g, "
                   "pops %llu vs %llu, aug %llu vs %llu, relaxes %llu vs %llu\n",
                   i, threads, serial[i].matching.cost(), parallel[i].matching.cost(),
                   static_cast<unsigned long long>(a.dijkstra_pops),
                   static_cast<unsigned long long>(b.dijkstra_pops),
                   static_cast<unsigned long long>(a.augmentations),
                   static_cast<unsigned long long>(b.augmentations),
                   static_cast<unsigned long long>(a.dijkstra_relaxes),
                   static_cast<unsigned long long>(b.dijkstra_relaxes));
      ok = false;
    }
    // Grid-only queries never touch the shared LRU, so even their fault
    // and node-access ledgers must match exactly.
    if (!UsesRTree(batch[i]) && (a.page_faults != b.page_faults ||
                                 a.index_node_accesses != b.index_node_accesses)) {
      std::fprintf(stderr, "GRID LEDGER VIOLATION query=%zu threads=%zu\n", i, threads);
      ok = false;
    }
  }
  return ok;
}

void PrintRow(const Row& r) {
  std::printf("%6zu %8zu %8zu %8zu %10.1f %8.1f %9.2f %9.2f %8.2fx %14.1f\n", r.shape.nq,
              r.shape.np, r.shape.queries, r.threads, r.wall_ms, r.qps, r.p50_ms, r.p99_ms,
              r.speedup, r.cost);
  std::fflush(stdout);
}

void WriteJson(const std::vector<Row>& rows, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const cca::Metrics& m = r.totals;
    char p999[48] = "";
    if (r.samples >= cca::Histogram::kMinP999Samples) {
      std::snprintf(p999, sizeof(p999), "\"p999_ms\": %.3f, ", r.p999_ms);
    }
    std::fprintf(f,
                 "  {\"workload\": \"mixed\", \"n_q\": %zu, \"n_p\": %zu, \"queries\": %zu, "
                 "\"k\": %d, \"threads\": %zu, \"samples\": %llu, "
                 "\"qps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, %s"
                 "\"mean_ms\": %.3f, \"wall_ms\": %.1f, "
                 "\"speedup\": %.2f, \"cost\": %.3f, "
                 "\"pops\": %llu, \"relaxes\": %llu, \"esub\": %llu, "
                 "\"augmentations\": %llu, \"index_node_accesses\": %llu}%s\n",
                 r.shape.nq, r.shape.np, r.shape.queries, r.shape.k, r.threads,
                 static_cast<unsigned long long>(r.samples), r.qps, r.p50_ms, r.p99_ms, p999,
                 r.mean_ms, r.wall_ms, r.speedup, r.cost,
                 static_cast<unsigned long long>(m.dijkstra_pops),
                 static_cast<unsigned long long>(m.dijkstra_relaxes),
                 static_cast<unsigned long long>(m.edges_inserted),
                 static_cast<unsigned long long>(m.augmentations),
                 static_cast<unsigned long long>(m.index_node_accesses),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", rows.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_qps.json";
  std::string trace_path;
  std::size_t max_np = 10000;
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
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
    } else if (flag == "--trace-out") {
      trace_path = next();
      if (!cca::trace::kCompiledIn) {
        // Flags a run would silently ignore are hard errors (repo rule).
        std::fprintf(stderr,
                     "--trace-out requires a tracing-enabled build "
                     "(-DCCA_ENABLE_TRACING=ON)\n");
        return 2;
      }
    } else if (flag == "--max-np") {
      max_np = static_cast<std::size_t>(std::atoll(next()));
    } else if (flag == "--threads") {
      thread_counts.clear();
      for (const char* tok = std::strtok(const_cast<char*>(next()), ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        thread_counts.push_back(static_cast<std::size_t>(std::atoll(tok)));
      }
      if (thread_counts.empty() || thread_counts[0] != 1) {
        std::fprintf(stderr, "--threads list must start with 1 (the determinism baseline)\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_engine_qps [--out FILE] [--max-np N] [--threads CSV] "
                   "[--trace-out FILE]\n");
      return 2;
    }
  }
  if (!trace_path.empty()) cca::trace::Start();

  const Shape shapes[] = {
      {100, 2000, 12, 40},
      {100, 10000, 48, 40},
  };

  cca::RoadNetwork net = cca::DefaultNetwork(99);
  std::printf("%6s %8s %8s %8s %10s %8s %9s %9s %9s %14s\n", "nq", "np", "queries", "threads",
              "wall_ms", "qps", "p50_ms", "p99_ms", "speedup", "cost");

  std::vector<Row> rows;
  for (const Shape& s : shapes) {
    if (s.np > max_np) continue;
    cca::DatasetSpec p_spec;
    p_spec.count = s.np;
    p_spec.seed = 6;
    p_spec.distribution = cca::PointDistribution::kUniform;
    const std::vector<cca::Point> customers = cca::GeneratePoints(net, p_spec);

    cca::SharedIndex index(customers);
    const std::vector<cca::QuerySpec> batch = MakeBatch(net, customers, s);

    std::vector<cca::QueryOutcome> serial;
    double serial_wall = 0.0;
    for (const std::size_t t : thread_counts) {
      cca::QueryRunner runner(&index, t);
      runner.Run(batch);  // warmup: page the tree in, fault the pool warm
      cca::Timer timer;
      const std::vector<cca::QueryOutcome> outcomes = runner.Run(batch);
      const double wall = timer.ElapsedMillis();

      if (t == 1) {
        serial = outcomes;
        serial_wall = wall;
      } else if (!SameAnswers(batch, serial, outcomes, t)) {
        return 1;
      }

      Row row;
      row.shape = s;
      row.threads = t;
      row.wall_ms = wall;
      row.qps = wall > 0.0 ? 1000.0 * static_cast<double>(outcomes.size()) / wall : 0.0;
      std::vector<double> latency;
      latency.reserve(outcomes.size());
      for (const auto& o : outcomes) {
        latency.push_back(o.latency_millis);
        row.cost += o.matching.cost();
      }
      row.samples = latency.size();
      row.p50_ms = cca::bench::NearestRank(latency, 0.50);
      row.p99_ms = cca::bench::NearestRank(latency, 0.99);
      row.p999_ms = cca::bench::NearestRank(latency, 0.999);
      row.mean_ms = latency.empty() ? 0.0
                                    : std::accumulate(latency.begin(), latency.end(), 0.0) /
                                          static_cast<double>(latency.size());
      row.speedup = wall > 0.0 ? serial_wall / wall : 0.0;
      row.totals = cca::QueryRunner::Aggregate(outcomes);
      rows.push_back(row);
      PrintRow(row);
    }
  }
  WriteJson(rows, out_path);
  if (!trace_path.empty()) {
    cca::trace::Stop();
    if (!cca::trace::WriteJson(trace_path)) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote trace to %s\n", trace_path.c_str());
  }
  return 0;
}
