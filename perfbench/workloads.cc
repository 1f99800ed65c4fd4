#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/customer_db.h"
#include "core/exact.h"
#include "core/matching.h"
#include "flow/sspa.h"
#include "gen/generator.h"
#include "geo/grid.h"
#include "geo/hier_grid.h"
#include "runtime/engine.h"
#include "runtime/query_runner.h"

namespace perfbench {
namespace {

// One fixed city for every seed: the seed draws the population, the fleets
// and the event stream, never the map or its hotspots, so runs with
// different seeds measure instances of the same difficulty.
constexpr std::uint64_t kCitySeed = 7;
constexpr std::uint64_t kHotspotSeed = 2008;

// About one operation in kCheckEvery, and at most kMaxChecks per run, has
// its cost cross-checked against an independent solver. The checks run
// untimed, after the timed phase.
constexpr std::uint64_t kCheckEvery = 64;
constexpr std::size_t kMaxChecks = 10;

// Deterministic counters are summed over operations [0, kCountedOps) so
// they repeat exactly for a seed however fast the machine is.
constexpr std::size_t kCountedOps = 100;
// setup_s is the mean of kSetupSamples set-ups. On the single-threaded
// workloads they are the one before the timed phase and throw-away repeats
// spread evenly through it. One set-up lasts a fraction of a second and so
// sees a single one of the machine's speed phases (README.md, Bounds): the
// samples of a run fall into two modes, and their median jumped between
// the modes from run to run, where the mean moves smoothly.
constexpr int kSetupSamples = 10;

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

cca::DatasetSpec Clustered(std::size_t count, std::uint64_t seed) {
  cca::DatasetSpec spec;
  spec.count = count;
  spec.seed = seed;
  spec.distribution = cca::PointDistribution::kClustered;
  spec.cluster_seed = kHotspotSeed;
  return spec;
}

std::vector<cca::Provider> Fleet(const cca::RoadNetwork& net, std::size_t count,
                                 std::int32_t capacity, std::uint64_t seed) {
  std::vector<cca::Provider> fleet;
  for (const cca::Point& pos : cca::GeneratePoints(net, Clustered(count, seed))) {
    fleet.push_back(cca::Provider{pos, capacity});
  }
  return fleet;
}

bool Sampled(std::uint64_t seed, std::uint64_t op) {
  return Mix(seed, 0x5eed0000ull + op) % kCheckEvery == 0;
}

bool SameCost(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

void Put(MetricMap* metrics, const std::string& name, double value) {
  for (const auto& [known, unit] : PerLayerCatalogue()) {
    if (known == name) {
      (*metrics)[name] = Metric{value, unit};
      return;
    }
  }
  std::fprintf(stderr, "perfbench: %s is not in the per-layer catalogue\n", name.c_str());
  std::abort();
}

// Decides how long the timed phase runs, which operations are traced, and
// when a set-up repeat is due.
class Phase {
 public:
  explicit Phase(const RunConfig& config) : config_(config), start_(Clock::now()) {}

  // Whether another operation runs after `done` operations.
  bool Continue(std::size_t done) const {
    return config_.max_ops > 0 ? done < config_.max_ops : Elapsed() < config_.seconds;
  }
  // Traced runs trace the second half of the timed phase.
  bool Traced(std::size_t done) const {
    if (!config_.trace) return false;
    return config_.max_ops > 0 ? done >= config_.max_ops / 2 : Elapsed() >= config_.seconds / 2;
  }
  // True once per 1/kSetupSamples of the timed phase (never in runs bounded
  // by max_ops).
  bool SetupDue() {
    if (config_.max_ops > 0 || Elapsed() < next_setup_s_) return false;
    next_setup_s_ += config_.seconds / kSetupSamples;
    return true;
  }

 private:
  double Elapsed() const { return MillisBetween(start_, Clock::now()) / 1e3; }

  const RunConfig& config_;
  Clock::time_point start_;
  double next_setup_s_ = config_.seconds / kSetupSamples;
};

// The geo constructors the engine and SSPA run on every snapshot, replayed
// from outside under their own spans (traced operations only).
struct GeoReplay {
  std::vector<double> hier_ms, flat_ms, tau_ms;

  // `tau` seeds the cell-floor table (one value per point); null = zeros.
  void Run(const std::vector<cca::Point>& points, const std::vector<double>* tau, SpanLog* log) {
    cca::HierarchicalGrid::Options opts;
    opts.fine_target_per_cell = cca::UniformGrid::kDefaultTargetPerCell;
    opts.coarse_target_per_cell = 16.0 * opts.fine_target_per_cell;
    auto t0 = Clock::now();
    {
      SpanLog::Scope span(log, "geo.HierarchicalGrid");
      const cca::HierarchicalGrid hier(points, opts);
    }
    auto t1 = Clock::now();
    hier_ms.push_back(MillisBetween(t0, t1));
    std::unique_ptr<cca::UniformGrid> grid;
    {
      SpanLog::Scope span(log, "geo.UniformGrid");
      grid = std::make_unique<cca::UniformGrid>(points);
    }
    t0 = Clock::now();
    flat_ms.push_back(MillisBetween(t1, t0));
    {
      SpanLog::Scope span(log, "geo.CellTauTable");
      const auto table = tau != nullptr ? std::make_unique<cca::CellTauTable>(*grid, *tau)
                                        : std::make_unique<cca::CellTauTable>(*grid);
    }
    tau_ms.push_back(MillisBetween(t0, Clock::now()));
  }

  void Emit(MetricMap* layer) const {
    Put(layer, "geo.hier_build_ms", Percentile(hier_ms, 0.5));
    Put(layer, "geo.flat_build_ms", Percentile(flat_ms, 0.5));
    Put(layer, "geo.tau_table_ms", Percentile(tau_ms, 0.5));
  }
};

// Pruning and flow counters of the SSPA solves in the counted prefix.
void EmitSspaCounters(const cca::Metrics& m, MetricMap* layer) {
  const double examined = static_cast<double>(m.dijkstra_relaxes + m.relaxes_pruned);
  Put(layer, "geo.prune_ratio", Ratio(static_cast<double>(m.relaxes_pruned), examined));
  Put(layer, "geo.coarse_tails_pruned", static_cast<double>(m.coarse_tails_pruned));
  Put(layer, "geo.coarse_cells_descended", static_cast<double>(m.coarse_cells_descended));
  Put(layer, "geo.distances_computed", static_cast<double>(m.distances_computed));
  Put(layer, "flow.dijkstra_runs", static_cast<double>(m.dijkstra_runs));
  Put(layer, "flow.pops", static_cast<double>(m.dijkstra_pops));
  Put(layer, "flow.relaxes", static_cast<double>(m.dijkstra_relaxes));
  Put(layer, "flow.augmentations", static_cast<double>(m.augmentations));
  Put(layer, "flow.pops_per_augmentation",
      Ratio(static_cast<double>(m.dijkstra_pops), static_cast<double>(m.augmentations)));
  Put(layer, "flow.dual_repairs", static_cast<double>(m.dual_repairs));
  Put(layer, "flow.warm_units_adopted", static_cast<double>(m.warm_units_adopted));
}

std::map<std::string, std::uint64_t> CounterMap(const cca::Metrics& m) {
  std::map<std::string, std::uint64_t> out;
#define PERFBENCH_COUNTER(field, label) out[#field] = m.field;
  CCA_METRICS_COUNTER_FIELDS(PERFBENCH_COUNTER)
#undef PERFBENCH_COUNTER
  return out;
}

// End-to-end metrics from the timed phase: `busy_ms` is the time spent
// inside operations (or, for whatif, inside QueryRunner::Run).
void EmitEndToEnd(const std::vector<double>& setup_s, const std::vector<double>& latency_ms,
                  double busy_ms, RunResult* r) {
  r->end_to_end["setup_s"] = Metric{
      std::accumulate(setup_s.begin(), setup_s.end(), 0.0) / static_cast<double>(setup_s.size()),
      "s"};
  r->end_to_end["throughput_ops_s"] =
      Metric{Ratio(static_cast<double>(latency_ms.size()), busy_ms / 1e3), "ops/s"};
  const std::size_t n = latency_ms.size();
  for (const auto& [name, q] : {std::pair<const char*, double>{"latency_p50_ms", 0.50},
                                {"latency_p90_ms", 0.90},
                                {"latency_p99_ms", 0.99}}) {
    const double v = Percentile(latency_ms, q);
    r->end_to_end[name] = Metric{v, "ms"};
    // A percentile is supported when at least ten samples lie beyond it.
    const bool supported = static_cast<double>(n) * (1.0 - q) >= 10.0;
    r->notes.push_back(Format("%s = %.4f ms (n=%zu%s)", name, v, n,
                              supported ? "" : ", fewer than 10 samples beyond it"));
  }
  r->notes.push_back(Format("setup_s = %.4f s (mean of %zu set-ups; median %.4f, min %.4f, "
                            "max %.4f)",
                            r->end_to_end["setup_s"].value, setup_s.size(),
                            Percentile(setup_s, 0.5), Percentile(setup_s, 0.0),
                            Percentile(setup_s, 1.0)));
}

// Wall time of recording one span (open + close on an enabled log).
double SpanCostMs() {
  constexpr int kProbes = 20000;
  SpanLog probe;
  probe.set_enabled(true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kProbes; ++i) SpanLog::Scope span(&probe, "probe");
  return MillisBetween(t0, Clock::now()) / kProbes;
}

// The traced-run ledger shared by every workload: failed ratio, tracing
// overhead, the span self-time table, absent metrics, and the trace file.
// `traced_busy_ms` is the time the traced operations took.
void FinishRun(const char* workload, const RunConfig& config, const SpanLog& log,
               const std::vector<double>& untraced_ms, const std::vector<double>& traced_ms,
               double traced_busy_ms, RunResult* r) {
  Put(&r->per_layer, "failed_ratio",
      Ratio(static_cast<double>(r->failed), static_cast<double>(r->attempted)));
  if (!config.trace) return;
  // Overhead = measured cost of one span x spans recorded, over the traced
  // operations' time. Comparing the two halves' latencies directly mostly
  // measures how the machine's speed drifted between them, so that
  // comparison is printed as a note only.
  const double span_ms = SpanCostMs();
  Put(&r->per_layer, "bench.trace_overhead",
      Ratio(span_ms * static_cast<double>(log.spans().size()), traced_busy_ms));
  r->notes.push_back(Format(
      "trace: %zu spans at %.1f ns each; p50 of %zu untraced vs %zu traced operations: %.4f vs "
      "%.4f ms",
      log.spans().size(), span_ms * 1e6, untraced_ms.size(), traced_ms.size(),
      Percentile(untraced_ms, 0.5), Percentile(traced_ms, 0.5)));
  for (const SpanLog::SelfTime& t : log.SelfTimes()) {
    r->notes.push_back(Format("span %-24s count=%-7llu total=%12.3f ms  self=%12.3f ms",
                              t.name.c_str(), static_cast<unsigned long long>(t.count),
                              t.total_ms, t.self_ms));
  }
  std::string absent;
  for (const auto& [name, unit] : PerLayerCatalogue()) {
    if (r->per_layer.count(name) != 0) continue;
    r->per_layer[name] = Metric{0.0, unit};
    absent += (absent.empty() ? "" : ", ") + name;
  }
  if (!absent.empty()) {
    r->notes.push_back(Format("not exercised by %s, printed as 0: ", workload) + absent);
  }
  if (!config.trace_out.empty()) {
    if (log.WriteChromeJson(config.trace_out)) {
      r->notes.push_back("wrote Chrome trace " + config.trace_out);
    } else {
      r->notes.push_back("could not write Chrome trace " + config.trace_out);
    }
  }
}

// Per-operation record of an operation's cost for the untimed cross-check.
struct CostCheck {
  cca::Problem problem;
  double cost;
  bool op_ok;
};

// ---------------------------------------------------------------------------
// dispatch: a warm AssignmentEngine driven by a seeded event stream.

class DispatchStream {
 public:
  using Id = cca::AssignmentEngine::Id;

  static constexpr std::size_t kProviders = 30;
  static constexpr std::int32_t kCapacity = 80;
  static constexpr std::size_t kCustomers = 1500;
  // Mean arrivals per window (|P| / 200). Each window has as many
  // departures as arrivals, so the population stays at kCustomers.
  static constexpr double kLambda = kCustomers / 200.0;
  // Every kBurstEvery-th window is a burst of kBurst arrivals and
  // departures plus one provider departure and one arrival at the same
  // depot. Bursts visit the depots in turn, so a run samples every depot
  // instead of the few a random choice would hit.
  static constexpr std::uint64_t kBurstEvery = 50;
  static constexpr std::size_t kBurst = kCustomers / 10;
  static constexpr int kWarmupWindows = 5;
  // Arrival positions; large enough that a run never reuses one.
  static constexpr std::size_t kCustomerPool = 40 * kCustomers;

  DispatchStream(const cca::RoadNetwork& net, std::uint64_t seed)
      : customer_pool_(cca::GeneratePoints(net, Clustered(kCustomerPool, Mix(seed, 1)))),
        depots_(cca::GeneratePoints(net, Clustered(kProviders, Mix(kHotspotSeed, 2)))),
        stream_seed_(Mix(seed, 3)),
        rng_(stream_seed_) {}

  cca::AssignmentEngine& engine() { return engine_; }

  std::uint64_t InputFingerprint() const {
    Fingerprint f;
    f.AddValues(customer_pool_);
    f.AddValues(depots_);
    f.Add(&stream_seed_, sizeof(stream_seed_));
    return f.value();
  }

  // Initial population, the cold bootstrap solve and the warm-up windows.
  bool Bootstrap() {
    bool ok = true;
    for (std::size_t d = 0; d < kProviders; ++d) ok = ArriveProvider(d, nullptr) && ok;
    for (std::size_t i = 0; i < kCustomers; ++i) ok = ArriveCustomer(nullptr) && ok;
    ok = CheckOutcome(engine_.Resolve(), nullptr) && ok;
    for (int w = 0; w < kWarmupWindows; ++w) {
      ok = ApplyWindow(nullptr) && ok;
      ok = CheckOutcome(engine_.Resolve(), nullptr) && ok;
    }
    return ok;
  }

  // One event window of churn calls; false if any call failed.
  bool ApplyWindow(SpanLog* log) {
    const bool burst = window_ % kBurstEvery == kBurstEvery - 1;
    const std::size_t depot = (window_ / kBurstEvery) % kProviders;
    ++window_;
    const std::size_t churn = burst ? kBurst : Poisson(kLambda);
    bool ok = true;
    for (std::size_t i = 0; i < churn; ++i) ok = ArriveCustomer(log) && ok;
    for (std::size_t i = 0; i < churn; ++i) ok = DepartCustomer(log) && ok;
    if (burst) {
      ok = DepartProvider(depot, log) && ok;
      ok = ArriveProvider(depot, log) && ok;
    }
    return ok;
  }

  // A Resolve outcome is correct when it is not degraded, leaves no demand
  // unassigned on a feasible snapshot, and is a valid gamma-unit matching.
  bool CheckOutcome(const cca::AssignmentEngine::ResolveOutcome& out, std::string* error) const {
    std::string local;
    std::string* err = error != nullptr ? error : &local;
    if (out.degraded) {
      *err = "degraded resolve";
      return false;
    }
    const cca::Problem& problem = engine_.problem();
    if (out.unassigned_units != problem.TotalWeight() - problem.Gamma()) {
      *err = Format("%lld units unassigned", static_cast<long long>(out.unassigned_units));
      return false;
    }
    return cca::ValidateMatching(problem, out.matching, err);
  }

 private:
  // Knuth's Poisson sampler.
  std::size_t Poisson(double lambda) {
    const double limit = std::exp(-lambda);
    double product = rng_.NextDouble();
    std::size_t n = 0;
    while (product > limit) {
      ++n;
      product *= rng_.NextDouble();
    }
    return n;
  }

  bool ArriveCustomer(SpanLog* log) {
    const cca::Point& pos = customer_pool_[next_customer_++ % customer_pool_.size()];
    SpanLog::Scope span(log, "engine.InsertCustomer");
    const cca::StatusOr<Id> id = engine_.InsertCustomer(pos);
    if (!id.ok()) return false;
    customers_.push_back(id.value());
    return true;
  }

  bool DepartCustomer(SpanLog* log) {
    const std::size_t i = static_cast<std::size_t>(rng_.NextBelow(customers_.size()));
    const Id id = customers_[i];
    customers_[i] = customers_.back();
    customers_.pop_back();
    SpanLog::Scope span(log, "engine.RemoveCustomer");
    return engine_.RemoveCustomer(id);
  }

  bool ArriveProvider(std::size_t depot, SpanLog* log) {
    SpanLog::Scope span(log, "engine.InsertProvider");
    const cca::StatusOr<Id> id = engine_.InsertProvider(depots_[depot], kCapacity);
    if (!id.ok()) return false;
    depot_provider_[depot] = id.value();
    return true;
  }

  bool DepartProvider(std::size_t depot, SpanLog* log) {
    SpanLog::Scope span(log, "engine.RemoveProvider");
    return engine_.RemoveProvider(depot_provider_[depot]);
  }

  std::vector<cca::Point> customer_pool_;
  std::vector<cca::Point> depots_;
  std::uint64_t stream_seed_;
  cca::Rng rng_;
  cca::AssignmentEngine engine_;
  std::vector<Id> customers_;
  std::vector<Id> depot_provider_ = std::vector<Id>(kProviders, -1);
  std::size_t next_customer_ = 0;
  std::uint64_t window_ = 0;
};

}  // namespace

RunResult RunDispatch(const RunConfig& config) {
  RunResult r;
  const cca::RoadNetwork net = cca::DefaultNetwork(kCitySeed);
  std::vector<double> setup_s;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    auto stream = std::make_unique<DispatchStream>(net, config.seed);
    const bool ok = stream->Bootstrap();
    setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);
    if (!ok) {
      r.notes.push_back("set-up failed: a bootstrap or warm-up resolve was not correct");
      ++r.attempted;
      ++r.failed;
    }
    return stream;
  };
  CpuRotation rotation;
  rotation.Next();
  const std::unique_ptr<DispatchStream> stream = set_up();
  r.input_fingerprint = stream->InputFingerprint();
  cca::AssignmentEngine& engine = stream->engine();

  SpanLog log;
  Phase phase(config);
  cca::Metrics prefix;
  std::uint64_t prefix_matched = 0;
  std::uint64_t degraded = 0;
  std::vector<double> latency_ms, untraced_ms, traced_ms;
  std::vector<double> overhead_ms, solve_ms, resolve_ms_traced;
  double busy_ms = 0.0;
  GeoReplay geo;
  std::vector<CostCheck> checks;
  for (std::size_t op = 0; phase.Continue(op); ++op) {
    rotation.Step(op);
    if (phase.SetupDue()) set_up();
    const bool traced = phase.Traced(op);
    log.set_enabled(traced);
    log.set_op(static_cast<std::int64_t>(op));
    cca::AssignmentEngine::ResolveOutcome out;
    bool ok = true;
    double resolve_ms = 0.0;
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope op_span(&log, "op");
      ok = stream->ApplyWindow(&log);
      SpanLog::Scope resolve_span(&log, "engine.Resolve");
      const Clock::time_point r0 = Clock::now();
      out = engine.Resolve();
      resolve_ms = MillisBetween(r0, Clock::now());
    }
    const double ms = MillisBetween(t0, Clock::now());
    busy_ms += ms;
    latency_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);

    std::string error;
    if (!ok) error = "a churn call failed";
    ok = ok && stream->CheckOutcome(out, &error);
    if (out.degraded) ++degraded;
    if (op < kCountedOps) {
      prefix.Merge(out.metrics);
      prefix_matched += static_cast<std::uint64_t>(out.matching.size());
    }
    if (checks.size() < kMaxChecks && Sampled(config.seed, op)) {
      checks.push_back(CostCheck{engine.problem(), out.cost, ok});
    }
    if (traced) {
      overhead_ms.push_back(resolve_ms - out.metrics.cpu_millis);
      solve_ms.push_back(out.metrics.cpu_millis);
      resolve_ms_traced.push_back(resolve_ms);
      geo.Run(engine.problem().customers, &engine.potentials().tau_p, &log);
    }
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      if (r.failed <= 5) r.notes.push_back(Format("op %zu failed: %s", op, error.c_str()));
    }
  }
  for (const CostCheck& c : checks) {
    const double cold = cca::SolveSspa(c.problem).matching.cost();
    if (!SameCost(c.cost, cold)) {
      r.notes.push_back(Format("cost mismatch: warm %.17g, cold SolveSspa %.17g", c.cost, cold));
      if (c.op_ok) ++r.failed;
    }
  }
  r.notes.push_back(Format("cross-checked %zu operations against a cold SolveSspa",
                           checks.size()));
  r.counters = CounterMap(prefix);
  EmitEndToEnd(setup_s, latency_ms, busy_ms, &r);

  MetricMap& layer = r.per_layer;
  Put(&layer, "engine.warm_adoption_ratio",
      Ratio(static_cast<double>(prefix.warm_units_adopted), static_cast<double>(prefix_matched)));
  Put(&layer, "engine.degraded_resolves", static_cast<double>(degraded));
  EmitSspaCounters(prefix, &layer);
  if (config.trace) {
    const double resolve_total =
        std::accumulate(resolve_ms_traced.begin(), resolve_ms_traced.end(), 0.0);
    const double overhead_total = std::accumulate(overhead_ms.begin(), overhead_ms.end(), 0.0);
    const double solve_total = std::accumulate(solve_ms.begin(), solve_ms.end(), 0.0);
    Put(&layer, "engine.resolve_overhead_ms", Percentile(overhead_ms, 0.5));
    Put(&layer, "engine.resolve_overhead_share", Ratio(overhead_total, resolve_total));
    Put(&layer, "flow.solve_ms", Percentile(solve_ms, 0.5));
    Put(&layer, "flow.solve_share", Ratio(solve_total, resolve_total));
    geo.Emit(&layer);
    double churn_ms = 0.0, op_self_ms = 0.0;
    std::uint64_t churn_calls = 0, op_count = 0;
    for (const SpanLog::SelfTime& t : log.SelfTimes()) {
      if (t.name == "op") {
        op_self_ms = t.self_ms;
        op_count = t.count;
      } else if (t.name.rfind("engine.", 0) == 0 && t.name != "engine.Resolve") {
        churn_ms += t.total_ms;
        churn_calls += t.count;
      }
    }
    Put(&layer, "engine.churn_us", 1e3 * Ratio(churn_ms, static_cast<double>(churn_calls)));
    Put(&layer, "bench.residual_ms", Ratio(op_self_ms, static_cast<double>(op_count)));
    // Hypothesis under test: warm steps are bounded below by the O(|P|)
    // index rebuild rather than by the solve.
    const double share = Ratio(overhead_total, resolve_total);
    r.notes.push_back(Format(
        "rebuild hypothesis: Resolve p50 %.4f ms; overhead (rebuild + warm-start assembly + "
        "solver set-up) p50 %.4f ms = %.2f%% of Resolve wall time; geo replays p50 hier %.4f / "
        "flat %.4f / tau %.4f ms -> %s",
        Percentile(resolve_ms_traced, 0.5), Percentile(overhead_ms, 0.5), 100.0 * share,
        Percentile(geo.hier_ms, 0.5), Percentile(geo.flat_ms, 0.5), Percentile(geo.tau_ms, 0.5),
        share >= 0.5 ? "confirmed (the rebuild dominates)" : "refuted (the solve dominates)"));
  }
  FinishRun("dispatch", config, log, untraced_ms, traced_ms,
            std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0), &r);
  return r;
}

// ---------------------------------------------------------------------------
// batch-solve: one cold SolveSspa per operation, a new fleet each time.

namespace {
constexpr std::size_t kBatchCustomers = 5000;
// Fleet sizes vary per operation (kBatchMinProviders plus 0..20), so the
// latency distribution is wide: with one fixed size every solve costs about
// the same and the median jumps whenever the machine's speed changes.
constexpr std::size_t kBatchMinProviders = 10;
constexpr std::size_t kBatchProviderSpread = 21;
constexpr std::int32_t kBatchCapacity = 20;
constexpr int kBatchWarmupSolves = 8;

std::vector<cca::Provider> BatchFleet(const cca::RoadNetwork& net, std::uint64_t seed) {
  const std::size_t count = kBatchMinProviders + Mix(seed, 0) % kBatchProviderSpread;
  return Fleet(net, count, kBatchCapacity, seed);
}
}  // namespace

RunResult RunBatchSolve(const RunConfig& config) {
  RunResult r;
  const cca::RoadNetwork net = cca::DefaultNetwork(kCitySeed);
  std::vector<double> setup_s;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    cca::Problem problem;
    problem.customers =
        cca::GeneratePoints(net, Clustered(kBatchCustomers, Mix(config.seed, 1)));
    std::string error;
    bool ok = true;
    // Warm-up fleets step evenly through the size range, so the set-up does
    // the same amount of work for every seed.
    for (int w = 0; w < kBatchWarmupSolves; ++w) {
      const std::size_t count =
          kBatchMinProviders + static_cast<std::size_t>(w) * (kBatchProviderSpread - 1) /
                                   (kBatchWarmupSolves - 1);
      problem.providers = Fleet(net, count, kBatchCapacity, Mix(config.seed, 2 + w));
      ok = cca::ValidateMatching(problem, cca::SolveSspa(problem).matching, &error) && ok;
    }
    setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);
    if (!ok) {
      r.notes.push_back("set-up failed: warm-up solve: " + error);
      ++r.attempted;
      ++r.failed;
    }
    return problem;
  };
  CpuRotation rotation;
  rotation.Next();
  cca::Problem problem = set_up();
  {
    Fingerprint f;
    f.AddValues(problem.customers);
    const std::vector<cca::Provider> first = BatchFleet(net, Mix(config.seed, 100));
    f.AddValues(first);
    r.input_fingerprint = f.value();
  }

  SpanLog log;
  Phase phase(config);
  cca::Metrics prefix;
  std::vector<double> latency_ms, untraced_ms, traced_ms, solve_ms, wall_ms_traced;
  double busy_ms = 0.0;
  GeoReplay geo;
  std::vector<CostCheck> checks;
  for (std::size_t op = 0; phase.Continue(op); ++op) {
    rotation.Step(op);
    if (phase.SetupDue()) set_up();
    const bool traced = phase.Traced(op);
    log.set_enabled(traced);
    log.set_op(static_cast<std::int64_t>(op));
    problem.providers = BatchFleet(net, Mix(config.seed, 100 + op));
    cca::SspaResult res;
    double solve_wall = 0.0;
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope op_span(&log, "op");
      SpanLog::Scope solve_span(&log, "flow.SolveSspa");
      const Clock::time_point s0 = Clock::now();
      res = cca::SolveSspa(problem);
      solve_wall = MillisBetween(s0, Clock::now());
    }
    const double ms = MillisBetween(t0, Clock::now());
    busy_ms += ms;
    latency_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);

    std::string error;
    bool ok = cca::ValidateMatching(problem, res.matching, &error);
    if (ok && res.unassigned_units != problem.TotalWeight() - problem.Gamma()) {
      ok = false;
      error = "unassigned ledger does not match the overflow";
    }
    if (op < kCountedOps) prefix.Merge(res.metrics);
    if (checks.size() < kMaxChecks && Sampled(config.seed, op)) {
      checks.push_back(CostCheck{problem, res.matching.cost(), ok});
    }
    if (traced) {
      solve_ms.push_back(res.metrics.cpu_millis);
      wall_ms_traced.push_back(solve_wall);
      geo.Run(problem.customers, nullptr, &log);
    }
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      if (r.failed <= 5) r.notes.push_back(Format("op %zu failed: %s", op, error.c_str()));
    }
  }
  if (!checks.empty()) {
    cca::CustomerDb db(checks.front().problem.customers);
    cca::ExactConfig ida;
    ida.discovery_backend = cca::DiscoveryBackend::kGrid;
    for (const CostCheck& c : checks) {
      const double reference = cca::SolveIda(c.problem, &db, ida).matching.cost();
      if (!SameCost(c.cost, reference)) {
        r.notes.push_back(Format("cost mismatch: SolveSspa %.17g, SolveIda %.17g", c.cost,
                                 reference));
        if (c.op_ok) ++r.failed;
      }
    }
  }
  r.notes.push_back(Format("cross-checked %zu operations against SolveIda (grid backend)",
                           checks.size()));
  r.counters = CounterMap(prefix);
  EmitEndToEnd(setup_s, latency_ms, busy_ms, &r);

  MetricMap& layer = r.per_layer;
  EmitSspaCounters(prefix, &layer);
  if (config.trace) {
    Put(&layer, "flow.solve_ms", Percentile(solve_ms, 0.5));
    Put(&layer, "flow.solve_share",
        Ratio(std::accumulate(solve_ms.begin(), solve_ms.end(), 0.0),
              std::accumulate(wall_ms_traced.begin(), wall_ms_traced.end(), 0.0)));
    geo.Emit(&layer);
    for (const SpanLog::SelfTime& t : log.SelfTimes()) {
      if (t.name == "op") {
        Put(&layer, "bench.residual_ms", Ratio(t.self_ms, static_cast<double>(t.count)));
      }
    }
  }
  FinishRun("batch-solve", config, log, untraced_ms, traced_ms,
            std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0), &r);
  return r;
}

// ---------------------------------------------------------------------------
// whatif: mixed query batches through QueryRunner over one SharedIndex.

namespace {
constexpr std::size_t kWhatifCustomers = 10000;
constexpr std::size_t kWhatifProviders = 25;
constexpr std::int32_t kWhatifCapacity = 20;
constexpr std::size_t kWhatifBatch = 32;

// Query kinds, rotated through every batch; kind 7 is the 1/8 R-tree slice.
constexpr std::size_t kKinds = 8;
constexpr std::size_t kRTreeKind = 7;

cca::QuerySpec MakeQuery(const std::vector<cca::Point>& customers, std::vector<cca::Provider> fleet,
                         std::size_t kind) {
  cca::QuerySpec spec;
  spec.problem.customers = customers;
  spec.problem.providers = std::move(fleet);
  static constexpr std::pair<cca::QuerySolver, cca::DiscoveryBackend> kMix[kKinds] = {
      {cca::QuerySolver::kIda, cca::DiscoveryBackend::kGrid},
      {cca::QuerySolver::kIda, cca::DiscoveryBackend::kGridBatched},
      {cca::QuerySolver::kNia, cca::DiscoveryBackend::kGrid},
      {cca::QuerySolver::kNia, cca::DiscoveryBackend::kGridBatched},
      {cca::QuerySolver::kRia, cca::DiscoveryBackend::kGrid},
      {cca::QuerySolver::kRia, cca::DiscoveryBackend::kGridBatched},
      {cca::QuerySolver::kSspa, cca::DiscoveryBackend::kAuto},
      {cca::QuerySolver::kIda, cca::DiscoveryBackend::kRTreeGrouped},
  };
  spec.solver = kMix[kind].first;
  spec.exact.discovery_backend = kMix[kind].second;
  return spec;
}

std::vector<cca::QuerySpec> MakeBatch(const cca::RoadNetwork& net,
                                      const std::vector<cca::Point>& customers,
                                      std::uint64_t seed, std::uint64_t first_query) {
  std::vector<cca::QuerySpec> batch;
  batch.reserve(kWhatifBatch);
  for (std::size_t j = 0; j < kWhatifBatch; ++j) {
    batch.push_back(MakeQuery(customers,
                              Fleet(net, kWhatifProviders, kWhatifCapacity,
                                    Mix(seed, 100 + first_query + j)),
                              j % kKinds));
  }
  return batch;
}

std::size_t RunnerThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(4, hw == 0 ? 1 : hw);
}
}  // namespace

RunResult RunWhatif(const RunConfig& config) {
  RunResult r;
  const cca::RoadNetwork net = cca::DefaultNetwork(kCitySeed);
  const std::size_t threads = RunnerThreads();
  std::vector<double> setup_s;
  struct Service {
    std::vector<cca::Point> customers;
    std::unique_ptr<cca::SharedIndex> index;
    std::unique_ptr<cca::QueryRunner> runner;
  };
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    Service s;
    s.customers = cca::GeneratePoints(net, Clustered(kWhatifCustomers, Mix(config.seed, 1)));
    s.index = std::make_unique<cca::SharedIndex>(s.customers);
    s.runner = std::make_unique<cca::QueryRunner>(s.index.get(), threads);
    const std::vector<cca::QuerySpec> warmup =
        MakeBatch(net, s.customers, Mix(config.seed, 2), 0);
    const std::vector<cca::QueryOutcome> outcomes = s.runner->Run(warmup);
    setup_s.push_back(MillisBetween(t0, Clock::now()) / 1e3);
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      std::string error;
      if (!cca::ValidateMatching(warmup[j].problem, outcomes[j].matching, &error)) {
        r.notes.push_back("set-up failed: warm-up query: " + error);
        ++r.attempted;
        ++r.failed;
      }
    }
    return s;
  };
  // The set-ups run back to back here: a repeat during the timed phase would
  // hold a second index and thread pool beside the live ones, which raised
  // peak_rss_mb by 40% and made it spread by 11% between runs.
  for (int i = 1; i < kSetupSamples; ++i) set_up();
  const Service service = set_up();
  const std::vector<cca::Point>& customers = service.customers;
  cca::QueryRunner& runner = *service.runner;
  {
    Fingerprint f;
    f.AddValues(customers);
    f.AddValues(Fleet(net, kWhatifProviders, kWhatifCapacity, Mix(config.seed, 100)));
    r.input_fingerprint = f.value();
  }
  cca::RTree* tree = service.index->db()->tree();
  r.notes.push_back(Format("whatif: %zu threads; R-tree %u pages, buffer pool %u pages",
                           threads, tree->page_count(), tree->buffer().capacity()));
  std::unique_ptr<cca::QueryRunner> serial;
  if (config.trace) serial = std::make_unique<cca::QueryRunner>(service.index.get(), 1);

  SpanLog log;
  const Phase phase(config);
  cca::Metrics exact_prefix, sspa_prefix, rtree_prefix;
  std::vector<double> latency_ms, untraced_ms, traced_ms;
  std::vector<double> by_solver_ms[5];
  std::vector<double> sspa_cpu_ms;
  double sspa_latency_total = 0.0;
  double traced_latency_total = 0.0, traced_wall_total = 0.0, residual_total = 0.0;
  double contended_ms = 0.0, alone_ms = 0.0;
  std::uint64_t rtree_queries = 0, rtree_faults = 0, traced_batches = 0;
  // Buffer pool traffic of the contended batches only; the 1-thread replays
  // read the same pool and are left out.
  std::uint64_t pool_hits = 0, pool_reads = 0, pool_retries = 0;
  double busy_ms = 0.0;
  std::vector<CostCheck> checks;
  std::size_t done = 0;
  for (std::size_t b = 0; phase.Continue(done); ++b) {
    const bool traced = phase.Traced(done);
    log.set_enabled(traced);
    log.set_op(static_cast<std::int64_t>(b));
    const std::vector<cca::QuerySpec> batch =
        MakeBatch(net, customers, config.seed, b * kWhatifBatch);
    std::vector<cca::QueryOutcome> outcomes;
    const cca::BufferPool::Stats pool_before = tree->buffer().stats();
    const Clock::time_point t0 = Clock::now();
    {
      SpanLog::Scope span(&log, "runner.Run");
      outcomes = runner.Run(batch);
    }
    const double wall = MillisBetween(t0, Clock::now());
    busy_ms += wall;
    if (traced) {
      const cca::BufferPool::Stats pool_after = tree->buffer().stats();
      pool_hits += pool_after.hits - pool_before.hits;
      pool_reads += pool_after.logical_reads - pool_before.logical_reads;
      pool_retries += pool_after.read_retries - pool_before.read_retries;
    }

    double batch_latency = 0.0;
    std::vector<const cca::QuerySpec*> rtree_specs;
    std::vector<double> rtree_contended;
    for (std::size_t j = 0; j < batch.size(); ++j) {
      const cca::QueryOutcome& o = outcomes[j];
      const std::size_t query = b * kWhatifBatch + j;
      const std::size_t kind = j % kKinds;
      latency_ms.push_back(o.latency_millis);
      (traced ? traced_ms : untraced_ms).push_back(o.latency_millis);
      batch_latency += o.latency_millis;
      std::string error;
      const bool ok = cca::ValidateMatching(batch[j].problem, o.matching, &error);
      if (query < kCountedOps) {
        (batch[j].solver == cca::QuerySolver::kSspa ? sspa_prefix : exact_prefix).Merge(o.metrics);
        if (kind == kRTreeKind) rtree_prefix.Merge(o.metrics);
      }
      if (checks.size() < kMaxChecks && Sampled(config.seed, query)) {
        checks.push_back(CostCheck{batch[j].problem, o.matching.cost(), ok});
      }
      if (traced) {
        by_solver_ms[static_cast<int>(batch[j].solver)].push_back(o.latency_millis);
        if (batch[j].solver == cca::QuerySolver::kSspa) {
          sspa_cpu_ms.push_back(o.metrics.cpu_millis);
          sspa_latency_total += o.latency_millis;
        }
        if (kind == kRTreeKind) {
          rtree_specs.push_back(&batch[j]);
          rtree_contended.push_back(o.latency_millis);
          rtree_faults += o.metrics.page_faults;
          ++rtree_queries;
        }
      }
      ++r.attempted;
      if (!ok) {
        ++r.failed;
        if (r.failed <= 5) r.notes.push_back(Format("query %zu failed: %s", query, error.c_str()));
      }
    }
    done += batch.size();
    if (traced) {
      ++traced_batches;
      traced_latency_total += batch_latency;
      traced_wall_total += wall;
      residual_total += wall - batch_latency / static_cast<double>(threads);
      // The R-tree slice again on one thread: the contention the shared
      // buffer pool adds at `threads` threads.
      std::vector<cca::QuerySpec> slice;
      for (const cca::QuerySpec* s : rtree_specs) slice.push_back(*s);
      std::vector<cca::QueryOutcome> alone;
      {
        SpanLog::Scope span(&log, "runner.Run.1thread");
        alone = serial->Run(slice);
      }
      for (std::size_t j = 0; j < alone.size(); ++j) {
        contended_ms += rtree_contended[j];
        alone_ms += alone[j].latency_millis;
      }
    }
  }
  for (const CostCheck& c : checks) {
    const double reference = cca::SolveSspa(c.problem).matching.cost();
    if (!SameCost(c.cost, reference)) {
      r.notes.push_back(Format("cost mismatch: query %.17g, SolveSspa %.17g", c.cost, reference));
      if (c.op_ok) ++r.failed;
    }
  }
  r.notes.push_back(Format("cross-checked %zu queries against SolveSspa", checks.size()));
  cca::Metrics all_prefix = exact_prefix;
  all_prefix.Merge(sspa_prefix);
  r.counters = CounterMap(all_prefix);
  EmitEndToEnd(setup_s, latency_ms, busy_ms, &r);

  MetricMap& layer = r.per_layer;
  EmitSspaCounters(sspa_prefix, &layer);
  Put(&layer, "core.esub", static_cast<double>(exact_prefix.edges_inserted));
  Put(&layer, "core.nn_searches", static_cast<double>(exact_prefix.nn_searches));
  Put(&layer, "core.index_node_accesses", static_cast<double>(exact_prefix.index_node_accesses));
  Put(&layer, "core.invalid_path_ratio",
      Ratio(static_cast<double>(exact_prefix.invalid_paths),
            static_cast<double>(exact_prefix.invalid_paths + exact_prefix.augmentations)));
  Put(&layer, "core.frontier_fanout_ratio",
      Ratio(static_cast<double>(exact_prefix.shared_frontier_fanout),
            static_cast<double>(exact_prefix.shared_frontier_cell_fetches)));
  Put(&layer, "rtree.node_accesses", static_cast<double>(rtree_prefix.node_accesses));
  if (config.trace) {
    for (const auto& [name, solver] : {std::pair<const char*, cca::QuerySolver>{
                                           "core.ida_ms", cca::QuerySolver::kIda},
                                       {"core.nia_ms", cca::QuerySolver::kNia},
                                       {"core.ria_ms", cca::QuerySolver::kRia},
                                       {"core.sspa_ms", cca::QuerySolver::kSspa}}) {
      Put(&layer, name, Percentile(by_solver_ms[static_cast<int>(solver)], 0.5));
    }
    Put(&layer, "flow.solve_ms", Percentile(sspa_cpu_ms, 0.5));
    Put(&layer, "flow.solve_share",
        Ratio(std::accumulate(sspa_cpu_ms.begin(), sspa_cpu_ms.end(), 0.0), sspa_latency_total));
    Put(&layer, "storage.page_faults",
        Ratio(static_cast<double>(rtree_faults), static_cast<double>(rtree_queries)));
    Put(&layer, "storage.buffer_hit_ratio",
        Ratio(static_cast<double>(pool_hits), static_cast<double>(pool_reads)));
    Put(&layer, "storage.read_retries", static_cast<double>(pool_retries));
    Put(&layer, "runner.parallel_efficiency",
        Ratio(traced_latency_total, static_cast<double>(threads) * traced_wall_total));
    Put(&layer, "runner.contention_ratio", Ratio(contended_ms, alone_ms));
    Put(&layer, "bench.residual_ms", Ratio(residual_total, static_cast<double>(traced_batches)));
    r.notes.push_back(Format("whatif residual: batch wall minus summed query latency / %zu "
                             "threads, per batch of %zu queries",
                             threads, kWhatifBatch));
  }
  FinishRun("whatif", config, log, untraced_ms, traced_ms, traced_wall_total, &r);
  return r;
}

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "dispatch") return &RunDispatch;
  if (name == "batch-solve") return &RunBatchSolve;
  if (name == "whatif") return &RunWhatif;
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"engine.resolve_overhead_ms", "ms"},
      {"engine.resolve_overhead_share", "fraction"},
      {"engine.churn_us", "us"},
      {"engine.warm_adoption_ratio", "fraction"},
      {"engine.degraded_resolves", "count"},
      {"geo.hier_build_ms", "ms"},
      {"geo.flat_build_ms", "ms"},
      {"geo.tau_table_ms", "ms"},
      {"geo.prune_ratio", "fraction"},
      {"geo.coarse_tails_pruned", "count"},
      {"geo.coarse_cells_descended", "count"},
      {"geo.distances_computed", "count"},
      {"flow.solve_ms", "ms"},
      {"flow.solve_share", "fraction"},
      {"flow.dijkstra_runs", "count"},
      {"flow.pops", "count"},
      {"flow.relaxes", "count"},
      {"flow.augmentations", "count"},
      {"flow.pops_per_augmentation", "ratio"},
      {"flow.dual_repairs", "count"},
      {"flow.warm_units_adopted", "count"},
      {"core.ida_ms", "ms"},
      {"core.nia_ms", "ms"},
      {"core.ria_ms", "ms"},
      {"core.sspa_ms", "ms"},
      {"core.esub", "count"},
      {"core.nn_searches", "count"},
      {"core.index_node_accesses", "count"},
      {"core.invalid_path_ratio", "fraction"},
      {"core.frontier_fanout_ratio", "ratio"},
      {"rtree.node_accesses", "count"},
      {"storage.page_faults", "count/query"},
      {"storage.buffer_hit_ratio", "fraction"},
      {"storage.read_retries", "count"},
      {"runner.parallel_efficiency", "fraction"},
      {"runner.contention_ratio", "ratio"},
      {"bench.residual_ms", "ms"},
      {"bench.trace_overhead", "fraction"},
      {"failed_ratio", "fraction"},
  };
  return kCatalogue;
}

}  // namespace perfbench
