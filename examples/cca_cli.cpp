// Command-line driver: generate a workload, run any solver, print a
// machine-readable summary. Useful for scripting parameter studies beyond
// the canned benchmarks.
//
// Usage:
//   cca_cli [--solver ida|nia|ria|sspa|greedy|sa|ca] [--nq N] [--np N]
//           [--k N] [--delta D] [--theta T] [--dist-q u|c] [--dist-p u|c]
//           [--seed S] [--dense]
//           [--backend auto|ann|grid|grid-batched]
//           [--threads N] [--repeat R] [--trace-out FILE]
//
// --repeat replicates the solve R times and --threads runs the replicas
// through the concurrent QueryRunner (src/runtime) over one shared index;
// per-solve metrics are unchanged (replicas are bit-identical) and
// throughput/latency lines are appended. sa/ca are per-call stateful over
// the approximation pipeline and are not routed through the runner.
//
// --dense switches SSPA from the hierarchical ring relax (the default) to
// the reference every-customer scan (SspaConfig::use_grid = false), the
// test oracle; costs must agree. It is SSPA-only, so other solvers reject
// it.
// --backend selects the candidate-discovery backend of the exact solvers:
// the grouped ANN traversal over the R-tree (`auto` and `ann`), grid ring
// cursors over the memory-resident customer array, or the batched grid
// (grid-batched: Hilbert-grouped providers sharing one fetched-cell ledger
// per group). SSPA has no discovery backend, so --solver sspa rejects
// --backend other than auto.
// --trace-out writes a Chrome trace (chrome://tracing / perfetto) of the
// solve's spans; it needs a tracing-enabled build (-DCCA_ENABLE_TRACING=ON)
// and hard-errors otherwise, per the no-silently-ignored-flags rule.
//
// Output: one `key=value` line per metric (easy to grep / parse): the
// run summary, then every Metrics counter under its struct field name
// (zeros included), then cpu_ms, io_ms and the SSPA phase clocks seed_ms,
// adopt_ms, augment_ms, cancel_ms and extract_ms.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/approx.h"
#include "core/customer_db.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "flow/sspa.h"
#include "gen/generator.h"
#include "runtime/query_runner.h"

namespace {

struct Args {
  std::string solver = "ida";
  std::size_t nq = 50;
  std::size_t np = 5000;
  int k = 80;
  double delta = 10.0;
  double theta = 3.6;
  bool clustered_q = true;
  bool clustered_p = true;
  std::uint64_t seed = 1;
  bool dense_sspa = false;
  std::string backend = "auto";
  std::size_t threads = 1;
  std::size_t repeat = 1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--solver") {
      args->solver = next();
    } else if (flag == "--nq") {
      const long long v = std::atoll(next());
      if (v < 1) {
        std::fprintf(stderr, "invalid instance: --nq must be >= 1 (got %lld)\n", v);
        return false;
      }
      args->nq = static_cast<std::size_t>(v);
    } else if (flag == "--np") {
      const long long v = std::atoll(next());
      if (v < 1) {
        std::fprintf(stderr, "invalid instance: --np must be >= 1 (got %lld)\n", v);
        return false;
      }
      args->np = static_cast<std::size_t>(v);
    } else if (flag == "--k") {
      args->k = std::atoi(next());
      if (args->k < 1) {
        std::fprintf(stderr, "invalid instance: --k must be >= 1 (got %d)\n", args->k);
        return false;
      }
    } else if (flag == "--delta") {
      args->delta = std::atof(next());
      if (!(args->delta > 0.0)) {
        std::fprintf(stderr, "invalid instance: --delta must be > 0 (got %g)\n", args->delta);
        return false;
      }
    } else if (flag == "--theta") {
      args->theta = std::atof(next());
      if (!(args->theta > 0.0)) {
        std::fprintf(stderr, "invalid instance: --theta must be > 0 (got %g)\n", args->theta);
        return false;
      }
    } else if (flag == "--dist-q") {
      args->clustered_q = std::strcmp(next(), "c") == 0;
    } else if (flag == "--dist-p") {
      args->clustered_p = std::strcmp(next(), "c") == 0;
    } else if (flag == "--seed") {
      args->seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (flag == "--dense") {
      args->dense_sspa = true;
    } else if (flag == "--backend") {
      args->backend = next();
    } else if (flag == "--threads") {
      const long long v = std::atoll(next());
      if (v < 1) {
        std::fprintf(stderr, "--threads must be >= 1 (got %lld)\n", v);
        return false;
      }
      args->threads = static_cast<std::size_t>(v);
    } else if (flag == "--repeat") {
      const long long v = std::atoll(next());
      if (v < 1) {
        std::fprintf(stderr, "--repeat must be >= 1 (got %lld)\n", v);
        return false;
      }
      args->repeat = static_cast<std::size_t>(v);
    } else if (flag == "--trace-out") {
      args->trace_out = next();
      if (!cca::trace::kCompiledIn) {
        std::fprintf(stderr,
                     "--trace-out requires a tracing-enabled build "
                     "(-DCCA_ENABLE_TRACING=ON)\n");
        return false;
      }
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cca;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cca_cli [--solver ida|nia|ria|sspa|greedy|sa|ca] [--nq N] [--np N]\n"
                 "               [--k N] [--delta D] [--theta T] [--dist-q u|c] [--dist-p u|c]\n"
                 "               [--seed S] [--dense]\n"
                 "               [--backend auto|ann|grid|grid-batched]\n"
                 "               [--threads N] [--repeat R] [--trace-out FILE]\n");
    return 2;
  }
  if (!args.trace_out.empty()) trace::Start();

  const RoadNetwork network = DefaultNetwork(42);
  DatasetSpec q_spec;
  q_spec.count = args.nq;
  q_spec.distribution =
      args.clustered_q ? PointDistribution::kClustered : PointDistribution::kUniform;
  q_spec.seed = args.seed * 2 + 1;
  DatasetSpec p_spec;
  p_spec.count = args.np;
  p_spec.distribution =
      args.clustered_p ? PointDistribution::kClustered : PointDistribution::kUniform;
  p_spec.seed = args.seed * 2 + 2;
  q_spec.cluster_seed = p_spec.cluster_seed = args.seed * 2 + 777;
  const Problem problem =
      MakeProblem(network, q_spec, p_spec, FixedCapacities(args.nq, args.k));

  CustomerDb::Options db_options;
  db_options.min_buffer_pages = 16;
  CustomerDb db(problem.customers, db_options);

  ExactConfig exact;
  exact.theta = args.theta;
  if (args.backend == "ann") {
    exact.discovery_backend = DiscoveryBackend::kRTreeGrouped;
  } else if (args.backend == "grid") {
    exact.discovery_backend = DiscoveryBackend::kGrid;
  } else if (args.backend == "grid-batched") {
    exact.discovery_backend = DiscoveryBackend::kGridBatched;
  } else if (args.backend != "auto") {
    std::fprintf(stderr, "unknown backend '%s'\n", args.backend.c_str());
    return 2;
  }

  // Flags a run would silently ignore are hard errors, not no-ops (same
  // pattern as the --threads/--repeat solver check below).
  if (args.dense_sspa && args.solver != "sspa") {
    std::fprintf(stderr, "--dense supports --solver sspa only\n");
    return 2;
  }
  SspaConfig sspa;
  if (args.solver == "sspa") {
    if (args.backend != "auto") {
      std::fprintf(stderr, "--backend does not apply to --solver sspa\n");
      return 2;
    }
    sspa.use_grid = !args.dense_sspa;
  }

  const bool runnable = args.solver == "ida" || args.solver == "nia" || args.solver == "ria" ||
                        args.solver == "greedy" || args.solver == "sspa";
  const bool use_runner = (args.threads > 1 || args.repeat > 1) && runnable;
  const std::size_t repeat = args.repeat;  // >= 1, enforced at parse time
  if ((args.threads > 1 || args.repeat > 1) && !use_runner &&
      (args.solver == "sa" || args.solver == "ca")) {
    std::fprintf(stderr, "--threads/--repeat support ida|nia|ria|greedy|sspa only\n");
    return 2;
  }

  Matching matching;
  Metrics metrics;
  if (use_runner) {
    QuerySpec spec;
    spec.problem = problem;
    spec.exact = exact;
    spec.sspa = sspa;
    if (args.solver == "ida") spec.solver = QuerySolver::kIda;
    if (args.solver == "nia") spec.solver = QuerySolver::kNia;
    if (args.solver == "ria") spec.solver = QuerySolver::kRia;
    if (args.solver == "greedy") spec.solver = QuerySolver::kGreedy;
    if (args.solver == "sspa") spec.solver = QuerySolver::kSspa;
    SharedIndex::Options index_options;
    index_options.db = db_options;
    index_options.build_customer_db = args.solver != "sspa";
    const SharedIndex index(problem.customers, index_options);
    const std::vector<QuerySpec> batch(repeat, spec);
    QueryRunner runner(&index, args.threads);
    Timer timer;
    std::vector<QueryOutcome> outcomes = runner.Run(batch);
    const double wall = timer.ElapsedMillis();
    matching = std::move(outcomes.front().matching);
    metrics = outcomes.front().metrics;
    std::vector<double> lat;
    lat.reserve(outcomes.size());
    for (const auto& o : outcomes) lat.push_back(o.latency_millis);
    std::sort(lat.begin(), lat.end());
    std::printf("threads=%zu repeat=%zu\n", runner.num_threads(), repeat);
    std::printf("wall_ms=%.1f\n", wall);
    std::printf("qps=%.2f\n", wall > 0.0 ? 1000.0 * static_cast<double>(repeat) / wall : 0.0);
    std::printf("p50_ms=%.3f p99_ms=%.3f\n", lat[lat.size() / 2],
                lat[static_cast<std::size_t>(0.99 * static_cast<double>(lat.size() - 1))]);
  } else if (args.solver == "ida" || args.solver == "nia" || args.solver == "ria" ||
             args.solver == "greedy") {
    ExactResult r;
    if (args.solver == "ida") r = SolveIda(problem, &db, exact);
    if (args.solver == "nia") r = SolveNia(problem, &db, exact);
    if (args.solver == "ria") r = SolveRia(problem, &db, exact);
    if (args.solver == "greedy") r = SolveGreedySm(problem, &db, exact);
    matching = std::move(r.matching);
    metrics = r.metrics;
  } else if (args.solver == "sspa") {
    SspaResult r = SolveSspa(problem, sspa);
    matching = std::move(r.matching);
    metrics = r.metrics;
  } else if (args.solver == "sa" || args.solver == "ca") {
    ApproxConfig config;
    config.delta = args.delta;
    config.exact = exact;
    ApproxResult r = args.solver == "sa" ? SolveSa(problem, &db, config)
                                         : SolveCa(problem, &db, config);
    matching = std::move(r.matching);
    metrics = r.metrics;
    std::printf("groups=%zu\n", r.num_groups);
  } else {
    std::fprintf(stderr, "unknown solver '%s'\n", args.solver.c_str());
    return 2;
  }

  std::string error;
  const bool valid = ValidateMatching(problem, matching, &error);
  std::printf("solver=%s\n", args.solver.c_str());
  std::printf("nq=%zu np=%zu k=%d gamma=%lld\n", args.nq, args.np, args.k,
              static_cast<long long>(problem.Gamma()));
  std::printf("cost=%.3f\n", matching.cost());
  std::printf("assigned=%lld\n", static_cast<long long>(matching.size()));
  // Demand the matching left unserved. On capacity-limited instances this
  // equals the overflow (total weight - total capacity); on feasible ones
  // a nonzero value means the solver under-delivered (valid=no catches it).
  std::printf("unassigned=%lld\n",
              static_cast<long long>(problem.TotalWeight() - matching.size()));
  std::printf("valid=%s%s%s\n", valid ? "yes" : "no", valid ? "" : " error=",
              valid ? "" : error.c_str());
  // Every Metrics counter, zeros included, named by its struct field; the
  // list is generated from the field table, so it cannot miss a counter.
#define CCA_CLI_PRINT_COUNTER(field, label) \
  std::printf(#field "=%llu\n", static_cast<unsigned long long>(metrics.field));
  CCA_METRICS_COUNTER_FIELDS(CCA_CLI_PRINT_COUNTER)
#undef CCA_CLI_PRINT_COUNTER
  const struct {
    const char* key;
    double millis;
  } clocks[] = {{"cpu_ms", metrics.cpu_millis},        {"io_ms", metrics.io_millis()},
                {"seed_ms", metrics.seed_millis},      {"adopt_ms", metrics.adopt_millis},
                {"augment_ms", metrics.augment_millis}, {"cancel_ms", metrics.cancel_millis},
                {"extract_ms", metrics.extract_millis}};
  for (const auto& clock : clocks) std::printf("%s=%.3f\n", clock.key, clock.millis);
  if (!args.trace_out.empty()) {
    trace::Stop();
    if (!trace::WriteJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("trace=%s\n", args.trace_out.c_str());
  }
  return valid ? 0 : 1;
}
