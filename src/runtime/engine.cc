#include "runtime/engine.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/timer.h"
#include "common/trace.h"
#include "flow/oracle.h"

namespace cca {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Swap-removes index `idx` from a dense vector, preserving alignment with
// the sibling arrays (the caller fixes up the id -> index map).
template <typename T>
void SwapRemove(std::vector<T>* v, std::size_t idx) {
  (*v)[idx] = std::move(v->back());
  v->pop_back();
}
}  // namespace

AssignmentEngine::AssignmentEngine(const Options& options) : options_(options) {}

StatusOr<AssignmentEngine::Id> AssignmentEngine::InsertCustomer(const Point& pos,
                                                                std::int32_t weight) {
  // Boundary validation (the Status contract): a NaN coordinate would
  // poison every distance comparison downstream — Dijkstra's heap order,
  // the grid's cell assignment — and a non-positive weight breaks the
  // flow network's gamma accounting. Reject here, mutate nothing.
  if (!std::isfinite(pos.x) || !std::isfinite(pos.y)) {
    return InvalidArgumentError("customer position must be finite");
  }
  if (weight < 1) {
    return InvalidArgumentError("customer weight must be >= 1");
  }
  // The weights array stays empty while every customer is unit-weight so
  // the solver keeps its flat serving_ fast path; the first non-unit
  // weight materialises it.
  if (weight != 1 || !problem_.weights.empty()) {
    if (problem_.weights.empty()) problem_.weights.assign(problem_.customers.size(), 1);
    problem_.weights.push_back(weight);
  }
  // Smallest dual feasible against every provider: tau_p >= tau_q - dist
  // for all q keeps the existing provider duals untouched. Before the
  // first solve every dual is zero anyway.
  problem_.customers.push_back(pos);
  warm_.potentials.tau_p.push_back(have_solution_ ? WarmCustomerDual(pos) : 0.0);
  if (solve_hier_ && !solve_hier_->coarse().bounds().Contains(pos)) outside_layout_ = true;
  const Id id = next_id_++;
  customer_ids_.push_back(id);
  customer_index_.emplace(id, problem_.customers.size() - 1);
  customers_dirty_ = true;
  ++stats_.customers_inserted;
  return id;
}

StatusOr<AssignmentEngine::Id> AssignmentEngine::InsertProvider(const Point& pos,
                                                                std::int32_t capacity) {
  if (!std::isfinite(pos.x) || !std::isfinite(pos.y)) {
    return InvalidArgumentError("provider position must be finite");
  }
  if (capacity < 1) {
    return InvalidArgumentError("provider capacity must be >= 1");
  }
  // Once a solution exists the dual is left for the solver to derive
  // (+infinity, SspaWarmStart): its clamp pass computes the largest
  // feasible value, min_p(dist + tau_p), over the duals it just tightened.
  problem_.providers.push_back(Provider{pos, capacity});
  warm_.potentials.tau_q.push_back(have_solution_ ? kInf : 0.0);
  // The arrival's walk is empty until its first solve grows it.
  if (!walks_.empty()) walks_.emplace_back(solve_hier_->layout(), pos);
  const Id id = next_id_++;
  provider_ids_.push_back(id);
  provider_index_.emplace(id, problem_.providers.size() - 1);
  ++stats_.providers_inserted;
  return id;
}

bool AssignmentEngine::RemoveCustomer(Id id) {
  const auto it = customer_index_.find(id);
  if (it == customer_index_.end()) return false;
  const std::size_t idx = it->second;
  customer_index_.erase(it);
  SwapRemove(&problem_.customers, idx);
  if (!problem_.weights.empty()) SwapRemove(&problem_.weights, idx);
  SwapRemove(&warm_.potentials.tau_p, idx);
  SwapRemove(&customer_ids_, idx);
  if (idx < customer_ids_.size()) customer_index_[customer_ids_[idx]] = idx;
  customers_dirty_ = true;
  ++stats_.customers_removed;
  return true;
}

bool AssignmentEngine::RemoveProvider(Id id) {
  const auto it = provider_index_.find(id);
  if (it == provider_index_.end()) return false;
  const std::size_t idx = it->second;
  provider_index_.erase(it);
  SwapRemove(&problem_.providers, idx);
  SwapRemove(&warm_.potentials.tau_q, idx);
  SwapRemove(&provider_ids_, idx);
  if (!walks_.empty()) SwapRemove(&walks_, idx);
  if (idx < provider_ids_.size()) provider_index_[provider_ids_[idx]] = idx;
  // Provider churn never touches the customer grid: dropping a dual only
  // removes constraints, so the remaining duals stay feasible.
  ++stats_.providers_removed;
  return true;
}

double AssignmentEngine::WarmCustomerDual(const Point& pos) const {
  double seed = 0.0;
  for (std::size_t q = 0; q < problem_.providers.size(); ++q) {
    // A provider that arrived since the last solve has no dual yet (+inf);
    // the solver derives it against this customer too.
    if (warm_.potentials.tau_q[q] == kInf) continue;
    seed = std::max(seed, warm_.potentials.tau_q[q] - Distance(problem_.providers[q].pos, pos));
  }
  return seed;
}

void AssignmentEngine::RebuildIndexesIfStale() {
  if (customers_dirty_ || !solve_hier_) {
    // The grid uses problem indices as point ids, so the CSR is rebuilt —
    // not patched with tombstones — to keep every id dense. The engine
    // keeps the layout and re-buckets into it, which keeps the walks valid:
    // they list every cell of the layout. A customer outside the layout's
    // bounding box would be clamped into an edge cell whose MinDist does
    // not bound it, so only that lays the grid out again.
    if (solve_hier_ && !outside_layout_) {
      solve_hier_ = std::make_unique<HierarchicalGrid>(problem_.customers, *solve_hier_);
    } else {
      solve_hier_ = std::make_unique<HierarchicalGrid>(problem_.customers);
      walks_.clear();
      outside_layout_ = false;
      ++stats_.layout_rebuilds;
    }
    customers_dirty_ = false;
  }
  if (walks_.size() != problem_.providers.size()) {
    walks_.reserve(problem_.providers.size());
    for (const Provider& provider : problem_.providers) {
      walks_.emplace_back(solve_hier_->layout(), provider.pos);
    }
  }
}

AssignmentEngine::ResolveOutcome AssignmentEngine::Resolve() {
  CCA_TRACE_SPAN_VAR(span, "engine.resolve");
  Timer timer;
  RebuildIndexesIfStale();
  SspaConfig cfg;
  cfg.shared_index = SspaSharedIndex{solve_hier_.get(), &walks_};
  const bool warm = have_solution_;
  if (warm) {
    // Previous flow remapped through the churn: pairs whose endpoints left
    // drop out; the solver re-checks tightness and capacity on the rest.
    // Infeasible snapshots degrade gracefully either way: the first solve
    // is the plain min-cost partial solve, a warm one routes the overflow
    // to its virtual provider (SspaWarmStart); both report the unserved
    // demand in the unassigned ledger.
    warm_.matching.pairs.clear();
    warm_.matching.pairs.reserve(last_flow_.size());
    for (const FlowRec& rec : last_flow_) {
      const auto qi = provider_index_.find(rec.provider);
      if (qi == provider_index_.end()) continue;
      const auto pi = customer_index_.find(rec.customer);
      if (pi == customer_index_.end()) continue;
      warm_.matching.Add(static_cast<std::int32_t>(qi->second),
                         static_cast<std::int32_t>(pi->second), rec.units, 0.0);
    }
    cfg.warm = &warm_;
  }
  // Deadline: the solver gets whatever is left of the Resolve budget after
  // the rebuild + warm-start assembly above. A budget already spent before
  // the solve starts skips it entirely — same degradation, zero stall.
  bool breached_before_solve = false;
  if (options_.resolve_deadline_ms > 0.0) {
    const double left = options_.resolve_deadline_ms - timer.ElapsedMillis();
    if (left <= 0.0) {
      breached_before_solve = true;
    } else {
      cfg.deadline_ms = left;
    }
  }
  SspaResult res;
  if (!breached_before_solve) res = SolveSspa(problem_, cfg);
  const bool degraded = breached_before_solve || res.deadline_exceeded;
  ResolveOutcome out;
  out.warm = warm;
  out.metrics = res.metrics;
  if (degraded) {
    // The partial solve is discarded: its flow is capacity-respecting but
    // not a certified optimum, and feeding it back into the warm-start
    // state would break the warm == cold anchor. Serve the last-known-good
    // matching (remapped through the churn) plus a greedy patch instead.
    BuildDegradedOutcome(&out);
    ++stats_.deadline_breaches;
    ++stats_.degraded_resolves;
  } else {
    out.cost = res.matching.cost();
    out.matching = std::move(res.matching);
    out.unassigned = std::move(res.unassigned);
    out.unassigned_units = res.unassigned_units;
  }
  // Latency is clocked here — after the serving work (rebuild + warm-start
  // assembly + solve), before the Debug builds' certificate below.
  const double latency_ms = timer.ElapsedMillis();
  span.Arg("warm", warm ? 1 : 0);
  span.Arg("pops", out.metrics.dijkstra_pops);
  span.Arg("adopted", out.metrics.warm_units_adopted);
  ++stats_.resolves;
  if (warm) ++stats_.warm_resolves;
  stats_.warm_units_adopted += out.metrics.warm_units_adopted;
  stats_.totals.Merge(out.metrics);
  stats_.resolve_latency_ms.Record(latency_ms);
  stats_.unassigned_units += static_cast<std::uint64_t>(out.unassigned_units);
  for (const MatchPair& pair : out.matching.pairs) {
    stats_.units_matched += static_cast<std::uint64_t>(pair.units);
  }
  if (degraded) {
    // Retained state is deliberately untouched: the duals and last_flow_
    // still describe the last *optimal* solve, so the next Resolve
    // warm-starts from certified ground, not from the greedy stop-gap
    // (whose flow is feasible but not min-cost for its value — adopting
    // it would violate the successive-shortest-path precondition).
    out.degraded = true;
    return out;
  }
#ifndef NDEBUG
  // The duals the solve exports prove its matching optimal; a failed
  // certificate is a solver bug.
  if (const Status cert = CertifyOptimal(problem_, out.matching, res.potentials); !cert.ok()) {
    std::fprintf(stderr, "AssignmentEngine: Resolve not certified optimal (|Q|=%zu |P|=%zu): %s\n",
                 problem_.providers.size(), problem_.customers.size(), cert.message().c_str());
    std::abort();
  }
#endif
  warm_.potentials = std::move(res.potentials);
  last_flow_.clear();
  last_flow_.reserve(out.matching.pairs.size());
  for (const MatchPair& pair : out.matching.pairs) {
    last_flow_.push_back(FlowRec{provider_ids_[static_cast<std::size_t>(pair.provider)],
                                 customer_ids_[static_cast<std::size_t>(pair.customer)],
                                 pair.units});
  }
  have_solution_ = true;
  return out;
}

// Assembles the deadline-degraded outcome: the last-known-good matching
// remapped through the churn (departed endpoints drop, surviving pairs are
// clamped to current capacity and demand), then a greedy nearest-residual
// patch for whatever demand is left. The scan is O(|unserved| * |Q|) —
// acceptable on a path taken only when the optimal solve already blew its
// budget, and always strictly bounded (no augmentation loops). Whatever
// the patch cannot place lands in the unassigned ledger.
void AssignmentEngine::BuildDegradedOutcome(ResolveOutcome* out) const {
  std::vector<std::int64_t> cap(problem_.providers.size());
  for (std::size_t q = 0; q < cap.size(); ++q) cap[q] = problem_.providers[q].capacity;
  std::vector<std::int64_t> need(problem_.customers.size());
  for (std::size_t p = 0; p < need.size(); ++p) need[p] = problem_.weight(p);
  for (const FlowRec& rec : last_flow_) {
    const auto qi = provider_index_.find(rec.provider);
    if (qi == provider_index_.end()) continue;
    const auto pi = customer_index_.find(rec.customer);
    if (pi == customer_index_.end()) continue;
    const std::size_t q = qi->second;
    const std::size_t p = pi->second;
    const std::int64_t units =
        std::min<std::int64_t>(rec.units, std::min(cap[q], need[p]));
    if (units <= 0) continue;
    out->matching.Add(static_cast<std::int32_t>(q), static_cast<std::int32_t>(p),
                      static_cast<std::int32_t>(units),
                      Distance(problem_.providers[q].pos, problem_.customers[p]));
    cap[q] -= units;
    need[p] -= units;
  }
  for (std::size_t p = 0; p < need.size(); ++p) {
    while (need[p] > 0) {
      std::size_t best_q = cap.size();
      double best_dist = kInf;
      for (std::size_t q = 0; q < cap.size(); ++q) {
        if (cap[q] <= 0) continue;
        const double d = Distance(problem_.providers[q].pos, problem_.customers[p]);
        if (d < best_dist) {
          best_dist = d;
          best_q = q;
        }
      }
      if (best_q == cap.size()) break;  // capacity exhausted
      const std::int64_t units = std::min(need[p], cap[best_q]);
      out->matching.Add(static_cast<std::int32_t>(best_q), static_cast<std::int32_t>(p),
                        static_cast<std::int32_t>(units), best_dist);
      cap[best_q] -= units;
      need[p] -= units;
    }
    if (need[p] > 0) {
      out->unassigned.push_back(
          UnassignedUnit{static_cast<std::int32_t>(p), need[p]});
      out->unassigned_units += need[p];
    }
  }
  out->cost = out->matching.cost();
}

std::string AssignmentEngine::Stats::ToJson() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\"schema_version\": %d, "
      "\"resolves\": %llu, \"warm_resolves\": %llu, "
      "\"customers_inserted\": %llu, \"customers_removed\": %llu, "
      "\"providers_inserted\": %llu, \"providers_removed\": %llu, "
      "\"units_matched\": %llu, \"warm_units_adopted\": %llu, "
      "\"warm_adoption_ratio\": %.6f, "
      "\"deadline_breaches\": %llu, \"degraded_resolves\": %llu, "
      "\"unassigned_units\": %llu, "
      "\"layout_rebuilds\": %llu, "
      "\"dijkstra_pops\": %llu, \"dijkstra_relaxes\": %llu, "
      "\"augmentations\": %llu, \"faults\": %llu, "
      "\"resolve_ms\": {\"count\": %llu, \"mean\": %.6f, \"p50\": %.6f, "
      "\"p99\": %.6f, \"max\": %.6f}}",
      kSchemaVersion, static_cast<unsigned long long>(resolves),
      static_cast<unsigned long long>(warm_resolves),
      static_cast<unsigned long long>(customers_inserted),
      static_cast<unsigned long long>(customers_removed),
      static_cast<unsigned long long>(providers_inserted),
      static_cast<unsigned long long>(providers_removed),
      static_cast<unsigned long long>(units_matched),
      static_cast<unsigned long long>(warm_units_adopted), warm_adoption_ratio(),
      static_cast<unsigned long long>(deadline_breaches),
      static_cast<unsigned long long>(degraded_resolves),
      static_cast<unsigned long long>(unassigned_units),
      static_cast<unsigned long long>(layout_rebuilds),
      static_cast<unsigned long long>(totals.dijkstra_pops),
      static_cast<unsigned long long>(totals.dijkstra_relaxes),
      static_cast<unsigned long long>(totals.augmentations),
      static_cast<unsigned long long>(totals.page_faults),
      static_cast<unsigned long long>(resolve_latency_ms.Count()), resolve_latency_ms.Mean(),
      resolve_latency_ms.Percentile(0.50), resolve_latency_ms.Percentile(0.99),
      resolve_latency_ms.Max());
  return std::string(buf);
}

}  // namespace cca
