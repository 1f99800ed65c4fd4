// Dispatch-churn benchmark for the incremental AssignmentEngine
// (src/runtime/engine.h): the warm-start A/B on a sustained
// arrival/departure stream.
//
// Each shape drives a Poisson-ish event stream — customer arrivals and
// departures every step, occasional provider churn — through one engine,
// warm-started at every Resolve (duals + adopted flow from the previous
// one), and also solves every snapshot from scratch: the "cold" mode is a
// default SolveSspa of the engine's problem(), over a freshly laid-out grid
// with the solve's own walks, nothing carried over. Every shape here is ample, so
// that from-scratch solve is the seeded cold solve (src/flow/README.md,
// "Seeded cold solves"): the grid's coarse and fine cells seed the warm
// path, and so does the engine's own step-0 bootstrap. Every step's warm
// cost is checked against the from-scratch cost and every warm outcome
// against its LP-duality certificate (exit non-zero on any mismatch or
// failed certificate: the engine's correctness anchor); every solve of a
// row, the bootstrap included, is certified untimed, and the row's
// `certified` column says whether all of them passed (tools/bench_diff.py
// fails on `false`). The run reports sustained
// re-solve QPS plus p50/p99 re-solve latency per mode over `samples`
// re-solves (p999 only from 1000 samples up). The percentiles are exact
// nearest-rank values over the retained samples (at most one per step),
// not histogram bucket bounds. The step-0 bootstrap — the engine's first
// Resolve and the first from-scratch solve, both cold — is timed apart as
// `bootstrap_ms` and never enters the latency samples; its cost and
// counters still count.
//
// Shapes keep gamma == total weight (ample capacity), the regime a
// dispatch service lives in and the one where flow adoption applies: on a
// small-perturbation step the warm engine re-augments only the churned
// units, so its dijkstra_pops must sit far below the cold solves' —
// that column is the gated headline (tools/bench_diff.py: cost, pops,
// relaxes, augmentations, distances_computed and walk_cells_built — the
// ring-walk cells the solves materialised, which the engine keeps across
// Resolves — gate against BENCH_dispatch.json from above,
// warm_units_adopted from below; timing and the `cycles` column, the
// negative source cycles the warm solves cancelled, are reported but never
// gated).
// Every row also splits its re-solves' SSPA time into the solver's phase
// clocks (seed_ms, adopt_ms, augment_ms, cancel_ms, extract_ms, summed over
// the latency samples; seed_ms is the cold rows' concise levels, 0 on warm
// rows); wall_ms minus their sum is index and ring-walk set-up, plus the
// engine's own overhead on warm rows.
//
//   bench_engine_dispatch [--out BENCH_dispatch.json] [--max-np N]
//                         [--stats-out FILE]  (per-step warm EngineStats JSON)
//                         [--trace-out FILE]  (tracing-enabled builds only)
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/trace.h"
#include "flow/oracle.h"
#include "flow/sspa.h"
#include "gen/generator.h"
#include "runtime/engine.h"

namespace {

struct Shape {
  const char* dist;  // "u" uniform / "c" clustered pools
  std::size_t nq, np, steps;
  std::int32_t k;
};

struct ModeStats {
  double cost = 0.0;  // summed over all resolves, the bootstrap included
  double bootstrap_ms = 0.0;  // step 0: the first (cold) solve of the initial snapshot
  double wall_ms = 0.0;       // every later step (the latency samples)
  std::vector<double> latency_ms;  // one per step >= 1: the percentile source
  cca::Metrics totals;
  cca::Metrics steady;  // steps >= 1 only: the source of the SSPA phase clocks
  // Failure-model counters: engine-cumulative for the warm mode,
  // snapshotted after the run; the cold mode sums its solves' unassigned
  // units and sets no deadline. All three must stay 0 in committed
  // baselines: the bench sets no deadline and its instances are feasible,
  // so any nonzero value is a regression bench_diff flags (the baseline
  // gates growth from 0).
  std::uint64_t deadline_breaches = 0;
  std::uint64_t degraded_resolves = 0;
  std::uint64_t unassigned_units = 0;
  // Every solve of the mode, the bootstrap included, passed CertifyOptimal.
  bool certified = true;
};

struct Row {
  Shape shape;
  const char* mode;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;  // written only at >= kMinP999Samples samples
  double mean_ms = 0.0;
  ModeStats stats;
};

// Knuth Poisson sampling; the event-count distribution of a dispatch
// stream's inter-resolve window.
std::size_t Poisson(cca::Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  double product = rng.NextDouble();
  std::size_t n = 0;
  while (product > limit) {
    ++n;
    product *= rng.NextDouble();
  }
  return n;
}

// Accumulates one timed solve into `stats`. The bootstrap (step 0) is
// timed apart from the steady-state latency samples; its cost and
// counters still count.
void Record(ModeStats& stats, double ms, double cost, const cca::Metrics& metrics,
            bool bootstrap) {
  if (bootstrap) {
    stats.bootstrap_ms = ms;
  } else {
    stats.wall_ms += ms;
    stats.latency_ms.push_back(ms);
    stats.steady.Merge(metrics);
  }
  stats.cost += cost;
  stats.totals.Merge(metrics);
}

// One timed Resolve of the engine, certified (untimed) against the duals
// the engine retains; returns the outcome and the certificate.
cca::AssignmentEngine::ResolveOutcome TimedResolve(cca::AssignmentEngine& engine,
                                                   ModeStats& stats, cca::Status* cert,
                                                   bool bootstrap = false) {
  cca::Timer timer;
  cca::AssignmentEngine::ResolveOutcome out = engine.Resolve();
  Record(stats, timer.ElapsedMillis(), out.cost, out.metrics, bootstrap);
  *cert = cca::CertifyOptimal(engine.problem(), out.matching, engine.potentials());
  stats.certified = stats.certified && cert->ok();
  return out;
}

// One timed from-scratch solve of `problem`, certified untimed; returns its
// cost.
double TimedColdSolve(const cca::Problem& problem, ModeStats& stats, bool bootstrap = false) {
  cca::Timer timer;
  const cca::SspaResult res = cca::SolveSspa(problem);
  const double cost = res.matching.cost();
  Record(stats, timer.ElapsedMillis(), cost, res.metrics, bootstrap);
  stats.unassigned_units += static_cast<std::uint64_t>(res.unassigned_units);
  stats.certified =
      stats.certified && cca::CertifyOptimal(problem, res.matching, res.potentials).ok();
  return cost;
}

void PrintRow(const Row& r) {
  const cca::Metrics& m = r.stats.totals;
  std::printf("%4s %6zu %8zu %4d %6zu %5s %8.1f %8.3f %8.3f %14.1f %12llu %9llu %9llu\n",
              r.shape.dist, r.shape.nq, r.shape.np, r.shape.k, r.shape.steps, r.mode, r.qps,
              r.p50_ms, r.p99_ms, r.stats.cost, static_cast<unsigned long long>(m.dijkstra_pops),
              static_cast<unsigned long long>(m.augmentations),
              static_cast<unsigned long long>(m.warm_units_adopted));
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
    const cca::Metrics& m = r.stats.totals;
    const std::uint64_t samples = r.stats.latency_ms.size();
    char p999[48] = "";
    if (samples >= cca::Histogram::kMinP999Samples) {
      std::snprintf(p999, sizeof(p999), "\"p999_ms\": %.3f, ", r.p999_ms);
    }
    std::fprintf(f,
                 "  {\"workload\": \"dispatch\", \"dist\": \"%s\", \"n_q\": %zu, \"n_p\": %zu, "
                 "\"k\": %d, \"mode\": \"%s\", \"samples\": %llu, "
                 "\"qps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, %s"
                 "\"mean_ms\": %.3f, \"wall_ms\": %.1f, \"bootstrap_ms\": %.3f, "
                 "\"seed_ms\": %.3f, \"adopt_ms\": %.3f, \"augment_ms\": %.3f, "
                 "\"cancel_ms\": %.3f, \"extract_ms\": %.3f, "
                 "\"cost\": %.3f, \"pops\": %llu, \"relaxes\": %llu, "
                 "\"augmentations\": %llu, \"dual_repairs\": %llu, "
                 "\"distances_computed\": %llu, \"walk_cells_built\": %llu, "
                 "\"warm_units_adopted\": %llu, \"cycles\": %llu, "
                 "\"deadline_breaches\": %llu, \"degraded_resolves\": %llu, "
                 "\"unassigned_units\": %llu, \"certified\": %s}%s\n",
                 r.shape.dist, r.shape.nq, r.shape.np, r.shape.k, r.mode,
                 static_cast<unsigned long long>(samples), r.qps, r.p50_ms, r.p99_ms, p999,
                 r.mean_ms, r.stats.wall_ms, r.stats.bootstrap_ms, r.stats.steady.seed_millis,
                 r.stats.steady.adopt_millis,
                 r.stats.steady.augment_millis, r.stats.steady.cancel_millis,
                 r.stats.steady.extract_millis, r.stats.cost,
                 static_cast<unsigned long long>(m.dijkstra_pops),
                 static_cast<unsigned long long>(m.dijkstra_relaxes),
                 static_cast<unsigned long long>(m.augmentations),
                 static_cast<unsigned long long>(m.dual_repairs),
                 static_cast<unsigned long long>(m.distances_computed),
                 static_cast<unsigned long long>(m.walk_cells_built),
                 static_cast<unsigned long long>(m.warm_units_adopted),
                 static_cast<unsigned long long>(m.source_cycles_cancelled),
                 static_cast<unsigned long long>(r.stats.deadline_breaches),
                 static_cast<unsigned long long>(r.stats.degraded_resolves),
                 static_cast<unsigned long long>(r.stats.unassigned_units),
                 r.stats.certified ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", rows.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_dispatch.json";
  std::string stats_path;
  std::string trace_path;
  std::size_t max_np = 100000;
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
    } else if (flag == "--stats-out") {
      stats_path = next();
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
    } else {
      std::fprintf(stderr,
                   "usage: bench_engine_dispatch [--out FILE] [--max-np N] "
                   "[--stats-out FILE] [--trace-out FILE]\n");
      return 2;
    }
  }
  if (!trace_path.empty()) cca::trace::Start();
  // Per-step EngineStats snapshots of every warm engine (one JSON object
  // per Resolve), demonstrating the snapshot surface is cheap enough to
  // export at serving cadence.
  std::vector<std::string> stats_snapshots;

  // k * nq comfortably exceeds np at every step: the ample-capacity
  // (Jonker-Volgenant) regime where flow adoption applies. Arrivals and
  // departures are rate-balanced so the population hovers around np.
  const Shape shapes[] = {
      {"u", 30, 1500, 60, 80},
      {"c", 30, 1500, 60, 80},
      {"u", 100, 8000, 50, 120},
  };

  cca::RoadNetwork net = cca::DefaultNetwork(7);
  std::printf("%4s %6s %8s %4s %6s %5s %8s %8s %8s %14s %12s %9s %9s\n", "dist", "nq", "np", "k",
              "steps", "mode", "qps", "p50_ms", "p99_ms", "cost", "pops", "aug", "adopted");

  std::vector<Row> rows;
  for (const Shape& s : shapes) {
    if (s.np > max_np) continue;
    // Pools of positions to draw arrivals from (the stream outlives the
    // initial population).
    cca::DatasetSpec p_spec;
    p_spec.count = s.np * 3;
    p_spec.seed = 11;
    p_spec.distribution = s.dist[0] == 'c' ? cca::PointDistribution::kClustered
                                           : cca::PointDistribution::kUniform;
    const std::vector<cca::Point> customer_pool = cca::GeneratePoints(net, p_spec);
    cca::DatasetSpec q_spec;
    q_spec.count = s.nq * 2;
    q_spec.seed = 13;
    q_spec.distribution = p_spec.distribution;
    const std::vector<cca::Point> provider_pool = cca::GeneratePoints(net, q_spec);

    cca::AssignmentEngine engine;
    std::vector<cca::AssignmentEngine::Id> customers;
    std::size_t next_customer = 0, next_provider = 0;
    auto arrive_customer = [&] {
      const cca::Point& pos = customer_pool[next_customer++ % customer_pool.size()];
      customers.push_back(engine.InsertCustomer(pos).value());
    };
    auto arrive_provider = [&] {
      const cca::Point& pos = provider_pool[next_provider++ % provider_pool.size()];
      // value() aborts on a rejected insert, like the customer path above.
      engine.InsertProvider(pos, s.k).value();
    };
    for (std::size_t q = 0; q < s.nq; ++q) arrive_provider();
    for (std::size_t p = 0; p < s.np; ++p) arrive_customer();

    ModeStats warm_stats, cold_stats;
    // Step 0 solves the initial snapshot (cold in both modes: nothing to
    // warm from), then every step perturbs ~lambda customers each way and
    // re-solves. Only the re-solves are latency samples.
    cca::Status cert;
    TimedResolve(engine, warm_stats, &cert, /*bootstrap=*/true);
    TimedColdSolve(engine.problem(), cold_stats, /*bootstrap=*/true);
    if (!stats_path.empty()) stats_snapshots.push_back(engine.stats().ToJson());

    cca::Rng rng(s.np * 31 + s.nq);
    const double lambda = std::max(1.0, static_cast<double>(s.np) / 200.0);
    for (std::size_t step = 0; step < s.steps; ++step) {
      const std::size_t arrivals = Poisson(rng, lambda);
      const std::size_t departures = std::min<std::size_t>(Poisson(rng, lambda),
                                                           customers.size() > s.nq
                                                               ? customers.size() - s.nq
                                                               : 0);
      for (std::size_t a = 0; a < arrivals; ++a) arrive_customer();
      for (std::size_t d = 0; d < departures; ++d) {
        const std::size_t i = static_cast<std::size_t>(rng.NextBelow(customers.size()));
        engine.RemoveCustomer(customers[i]);
        customers[i] = customers.back();
        customers.pop_back();
      }
      if (rng.NextDouble() < 0.05) arrive_provider();  // occasional fleet growth

      const cca::AssignmentEngine::ResolveOutcome warm = TimedResolve(engine, warm_stats, &cert);
      const double cold_cost = TimedColdSolve(engine.problem(), cold_stats);
      if (!stats_path.empty()) stats_snapshots.push_back(engine.stats().ToJson());
      const double tol = 1e-9 * std::max(1.0, std::abs(cold_cost));
      if (std::abs(warm.cost - cold_cost) > tol) {
        std::fprintf(stderr,
                     "WARM-START SOUNDNESS VIOLATION dist=%s step=%zu: warm cost %.17g != "
                     "cold cost %.17g\n",
                     s.dist, step, warm.cost, cold_cost);
        return 1;
      }
      // The duals the warm engine retains must prove its matching optimal
      // (TimedResolve's untimed certificate). Release builds compile the
      // engine's own check out.
      if (!cert.ok()) {
        std::fprintf(stderr, "WARM RESOLVE NOT CERTIFIED dist=%s step=%zu: %s\n", s.dist, step,
                     cert.message().c_str());
        return 1;
      }
    }

    for (auto* st : {&warm_stats, &cold_stats}) {
      Row row;
      row.shape = s;
      row.mode = st == &warm_stats ? "warm" : "cold";
      row.stats = *st;
      if (st == &warm_stats) {
        const cca::AssignmentEngine::Stats& es = engine.stats();
        row.stats.deadline_breaches = es.deadline_breaches;
        row.stats.degraded_resolves = es.degraded_resolves;
        row.stats.unassigned_units = es.unassigned_units;
      }
      const std::vector<double>& latency = row.stats.latency_ms;
      const auto samples = static_cast<double>(latency.size());
      row.p50_ms = cca::bench::NearestRank(latency, 0.50);
      row.p99_ms = cca::bench::NearestRank(latency, 0.99);
      row.p999_ms = cca::bench::NearestRank(latency, 0.999);
      row.mean_ms = samples > 0.0 ? row.stats.wall_ms / samples : 0.0;
      row.qps = row.stats.wall_ms > 0.0 ? 1000.0 * samples / row.stats.wall_ms : 0.0;
      rows.push_back(row);
      PrintRow(rows.back());
    }
    const auto warm_pops = rows[rows.size() - 2].stats.totals.dijkstra_pops;
    const auto cold_pops = rows[rows.size() - 1].stats.totals.dijkstra_pops;
    std::printf("  -> warm/cold pops ratio %.4f\n",
                cold_pops > 0 ? static_cast<double>(warm_pops) / static_cast<double>(cold_pops)
                              : 0.0);
  }
  WriteJson(rows, out_path);
  if (!stats_path.empty()) {
    std::FILE* f = std::fopen(stats_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", stats_path.c_str());
      return 1;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < stats_snapshots.size(); ++i) {
      std::fprintf(f, "  %s%s\n", stats_snapshots[i].c_str(),
                   i + 1 < stats_snapshots.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu engine-stats snapshots to %s\n", stats_snapshots.size(),
                stats_path.c_str());
  }
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
