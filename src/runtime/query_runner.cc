#include "runtime/query_runner.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "common/trace.h"
#include "core/greedy.h"
#include "core/nn_source.h"

namespace cca {
namespace {

// Indexed by QuerySolver.
constexpr const char* kSolverNames[] = {"sspa", "ria", "nia", "ida", "greedy"};

}  // namespace

SharedIndex::SharedIndex(std::vector<Point> customers)
    : SharedIndex(std::move(customers), Options()) {}

SharedIndex::SharedIndex(std::vector<Point> customers, const Options& options)
    : customers_(std::move(customers)) {
  if (options.build_customer_db) {
    db_ = std::make_unique<CustomerDb>(customers_, options.db);
  }
  if (!customers_.empty()) {
    stream_grid_ = std::make_unique<UniformGrid>(customers_, kNnStreamTargetPerCell);
    relax_hier_ = std::make_unique<HierarchicalGrid>(customers_);
  }
}

QueryRunner::QueryRunner(const SharedIndex* index, std::size_t num_threads) : index_(index) {
  const std::size_t n = num_threads == 0 ? 1 : num_threads;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryRunner::~QueryRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::vector<QueryOutcome> QueryRunner::Run(const std::vector<QuerySpec>& batch) {
  std::vector<QueryOutcome> results(batch.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = &batch;
    results_ = &results;
    next_.store(0, std::memory_order_relaxed);
    workers_done_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return workers_done_ == threads_.size(); });
    batch_ = nullptr;
    results_ = nullptr;
  }
  return results;
}

void QueryRunner::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    const std::vector<QuerySpec>* batch = nullptr;
    std::vector<QueryOutcome>* results = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || generation_ != seen_generation; });
      if (shutdown_) return;
      seen_generation = generation_;
      batch = batch_;
      results = results_;
    }
    // Claim queries off the shared cursor until the batch is drained. Each
    // query runs wholly on this thread (per-query metrics and thread-local
    // I/O tallies depend on that).
    while (true) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch->size()) break;
      (*results)[i] = RunOne((*batch)[i]);
    }
    // Drain this worker's trace buffer at the batch join: pooled workers
    // live until QueryRunner teardown, so without this a short tracing
    // session would never see their spans (thread-exit flush comes too
    // late). No-op when tracing is compiled out or stopped.
    trace::FlushThisThread();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++workers_done_;
      if (workers_done_ == threads_.size()) done_cv_.notify_all();
    }
  }
}

QueryOutcome QueryRunner::RunOne(const QuerySpec& spec) const {
  // QuerySpec's contract: the problem's customers are the index's, point
  // for point (asserted in Debug builds, O(|P|) per query). Release only
  // compares the counts before lending the shared grids, so a different
  // set of the same size would be solved over the index's points instead.
  assert(spec.problem.customers == index_->customers() &&
         "QuerySpec customers must be the SharedIndex's customer set");
  const bool same_customers = spec.problem.customers.size() == index_->customers().size();

  QueryOutcome outcome;
  CCA_TRACE_SPAN_VAR(span, "runner.query");
  span.Arg("solver", static_cast<std::uint64_t>(spec.solver));
  Timer timer;
  switch (spec.solver) {
    case QuerySolver::kSspa: {
      SspaConfig config = spec.sspa;
      if (config.shared_index.grid == nullptr && same_customers) {
        config.shared_index.grid = index_->relax_hier();
      }
      SspaResult r = SolveSspa(spec.problem, config);
      outcome.matching = std::move(r.matching);
      outcome.metrics = r.metrics;
      break;
    }
    default: {
      ExactConfig config = spec.exact;
      if (config.shared_stream_grid == nullptr && same_customers) {
        config.shared_stream_grid = index_->stream_grid();
      }
      CustomerDb* db = index_->db();
      if (db == nullptr) {
        std::fprintf(stderr,
                     "QueryRunner: %s query needs the SharedIndex CustomerDb "
                     "(built with build_customer_db = false)\n",
                     kSolverNames[static_cast<int>(spec.solver)]);
        std::abort();
      }
      ExactResult r;
      switch (spec.solver) {
        case QuerySolver::kRia:
          r = SolveRia(spec.problem, db, config);
          break;
        case QuerySolver::kNia:
          r = SolveNia(spec.problem, db, config);
          break;
        case QuerySolver::kGreedy:
          r = SolveGreedySm(spec.problem, db, config);
          break;
        default:
          r = SolveIda(spec.problem, db, config);
          break;
      }
      outcome.matching = std::move(r.matching);
      outcome.metrics = r.metrics;
      break;
    }
  }
  outcome.latency_millis = timer.ElapsedMillis();
  return outcome;
}

Metrics QueryRunner::Aggregate(const std::vector<QueryOutcome>& outcomes) {
  Metrics total;
  for (const QueryOutcome& o : outcomes) total.Merge(o.metrics);
  return total;
}

}  // namespace cca
