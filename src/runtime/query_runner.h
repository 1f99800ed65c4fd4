// Concurrent query engine: a fixed-size thread pool executing batches of
// independent assignment queries over one shared immutable index.
//
// The paper benchmarks one assignment at a time; a serving system runs a
// *stream* of them (new provider fleets, what-if capacity configurations,
// rolling re-assignments) against one slowly-changing customer set. The
// expensive read-only state — the R-tree with its LRU buffer, the
// streaming grid for NN discovery and the hierarchical grid for the SSPA
// relax — is built once into a SharedIndex and shared by every
// in-flight query; all mutable solver state (potentials, heaps, cursors,
// tau floors, metrics) is private to the executing query. No query ever
// writes shared state, so no locks are taken on the query path: the only
// synchronisation is the buffer pool's internal mutex (physical page reads)
// and the batch lifecycle itself.
//
// Execution model: each query runs start-to-finish on exactly one worker
// thread. That is what makes per-query I/O attribution exact (IoScope's
// thread-local tallies, src/rtree/rtree.h) and per-query Metrics bundles
// race-free — they are merged only after the batch joins. Results land at
// the query's batch index, so outcomes are deterministic and independent
// of thread count and scheduling; only page-fault counts on R-tree
// backends vary with concurrency (the shared LRU sees a different
// interleaving — see src/core/README.md).
#ifndef CCA_RUNTIME_QUERY_RUNNER_H_
#define CCA_RUNTIME_QUERY_RUNNER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/customer_db.h"
#include "core/exact.h"
#include "core/matching.h"
#include "core/problem.h"
#include "flow/sspa.h"
#include "geo/grid.h"
#include "geo/hier_grid.h"

namespace cca {

// Read-only index bundle over one customer set, safe to share across
// threads once constructed (construction itself is single-threaded).
class SharedIndex {
 public:
  struct Options {
    // Build the R-tree CustomerDb. Every RIA/NIA/IDA/greedy query needs it
    // (the grid backends read its point array, the R-tree backends its
    // tree), so only SSPA-only batches can skip the bulk load.
    bool build_customer_db = true;
    CustomerDb::Options db;
  };

  // The single-argument overload uses default Options (a default argument
  // cannot: nested-class member initializers are not usable until the
  // enclosing class is complete).
  explicit SharedIndex(std::vector<Point> customers);
  SharedIndex(std::vector<Point> customers, const Options& options);

  const std::vector<Point>& customers() const { return customers_; }
  // Null when Options::build_customer_db was false.
  CustomerDb* db() const { return db_.get(); }
  // The NN streaming grid at kNnStreamTargetPerCell, the shape a private
  // kGrid/kGridBatched build uses (null for an empty customer set).
  const UniformGrid* stream_grid() const { return stream_grid_.get(); }
  // The SSPA relax grid: HierarchicalGrid with default Options, the shape
  // a private SSPA build uses (null for an empty customer set).
  const HierarchicalGrid* relax_hier() const { return relax_hier_.get(); }

 private:
  std::vector<Point> customers_;
  std::unique_ptr<CustomerDb> db_;
  std::unique_ptr<UniformGrid> stream_grid_;
  std::unique_ptr<HierarchicalGrid> relax_hier_;
};

// Which solver a QuerySpec runs.
enum class QuerySolver {
  kSspa = 0,  // flow baseline (SolveSspa; ignores the R-tree entirely)
  kRia,
  kNia,
  kIda,
  kGreedy,  // greedy SM baseline
};

// One independent assignment query. `problem.customers` must be the shared
// index's customer set (same points, same order; Debug builds assert it) —
// providers, weights and configs are free per query. The runner injects the
// shared grids into the configs whenever the customer counts match, which
// is only safe under that contract: the SSPA relax grid for SSPA, the
// streaming grid for the exact solvers and greedy (both are built at the
// shape a private build would use, so borrowing never changes a
// matching). Pre-set shared grids are honoured as-is. RIA/NIA/IDA/greedy
// queries need the index's CustomerDb; running one on an index built
// without it aborts with a one-line message.
struct QuerySpec {
  QuerySolver solver = QuerySolver::kIda;
  Problem problem;
  ExactConfig exact;  // RIA / NIA / IDA / greedy
  SspaConfig sspa;    // SSPA
};

struct QueryOutcome {
  Matching matching;
  Metrics metrics;
  double latency_millis = 0.0;  // wall-clock of this query's solve
};

// Fixed-size persistent thread pool. Threads are spawned once in the
// constructor and parked between batches; Run() hands the pool a batch,
// blocks until every query finished, and returns outcomes in batch order.
// Run() is not itself thread-safe (one batch in flight at a time).
class QueryRunner {
 public:
  // `num_threads` == 0 or 1 still runs through one worker thread, keeping
  // the execution environment identical across thread counts (that is what
  // the determinism tests compare against).
  QueryRunner(const SharedIndex* index, std::size_t num_threads);
  ~QueryRunner();

  QueryRunner(const QueryRunner&) = delete;
  QueryRunner& operator=(const QueryRunner&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  std::vector<QueryOutcome> Run(const std::vector<QuerySpec>& batch);

  // Merges per-query Metrics bundles into one (Metrics::Merge under the
  // hood; timing fields sum, so cpu_millis is aggregate work, not
  // wall-clock).
  static Metrics Aggregate(const std::vector<QueryOutcome>& outcomes);

 private:
  void WorkerLoop();
  QueryOutcome RunOne(const QuerySpec& spec) const;

  const SharedIndex* index_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a new batch is ready
  std::condition_variable done_cv_;  // Run(): all workers drained the batch
  std::uint64_t generation_ = 0;     // bumped per batch (guarded by mu_)
  std::size_t workers_done_ = 0;     // workers finished with this batch
  bool shutdown_ = false;
  const std::vector<QuerySpec>* batch_ = nullptr;  // valid for one generation
  std::vector<QueryOutcome>* results_ = nullptr;
  std::atomic<std::size_t> next_{0};  // next unclaimed batch index
};

}  // namespace cca

#endif  // CCA_RUNTIME_QUERY_RUNNER_H_
