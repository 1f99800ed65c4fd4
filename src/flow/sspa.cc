#include "flow/sspa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/indexed_heap.h"
#include "common/timer.h"
#include "common/trace.h"
#include "geo/grid_cursor.h"
#include "geo/hier_grid.h"

namespace cca {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Virtual-provider capacity: the demand the real providers cannot absorb
// (0 on feasible instances and on cold solves — only a warm start needs the
// ample regime, see SspaWarmStart; a seeded cold solve is ample by its
// shape rule).
std::int64_t ComputeOverflow(const Problem& problem, const SspaConfig& config) {
  if (config.warm == nullptr) return 0;
  return std::max<std::int64_t>(0, problem.TotalWeight() - problem.TotalCapacity());
}

// The two concise instances of paper Section 4.2's CA, read off `grid`:
// one point per occupied coarse cell (`coarse`) and one per occupied fine
// cell (`fine`), each at its residents' centroid and weighted by their
// count, over the same providers.
void BuildConciseLevels(const Problem& problem, const HierarchicalGrid& grid, Problem* coarse,
                        Problem* fine) {
  coarse->providers = problem.providers;
  fine->providers = problem.providers;
  const auto add = [](Problem* level, double sx, double sy, std::size_t n) {
    const double count = static_cast<double>(n);
    level->customers.push_back(Point{sx / count, sy / count});
    level->weights.push_back(static_cast<std::int32_t>(n));
  };
  for (const std::int32_t c : grid.nonempty_coarse()) {
    const auto cell = static_cast<std::size_t>(c);
    double cx = 0.0, cy = 0.0;
    for (std::size_t f = grid.fine_begin(cell); f < grid.fine_end(cell); ++f) {
      const CellSlice slice = grid.FineCell(f);
      if (slice.count == 0) continue;
      double fx = 0.0, fy = 0.0;
      for (std::size_t i = 0; i < slice.count; ++i) {
        fx += slice.xs[i];
        fy += slice.ys[i];
      }
      add(fine, fx, fy, slice.count);
      cx += fx;
      cy += fy;
    }
    add(coarse, cx, cy, grid.coarse_count(cell));
  }
}

// A warm start for `to` from the provider duals `tau_q` of a coarser level
// over the same providers: tau_p = max(0, max_q(tau_q - dist)), the least
// customer dual feasible against every provider, and each point's best arc,
// tight when its gain tau_q - dist is >= 0, adopted in decreasing gain up
// to the provider's capacity. Any seed is sound (SspaWarmStart); this one
// is close to the optimum's own, so the warm solve has little to repair.
SspaWarmStart SeedFrom(const Problem& to, const std::vector<double>& tau_q, Metrics* metrics) {
  struct Arc {
    double gain;
    std::int32_t q, p;
  };
  SspaWarmStart seed;
  seed.potentials.tau_q = tau_q;
  seed.potentials.tau_p.assign(to.customers.size(), 0.0);
  std::vector<Arc> tight;
  tight.reserve(to.customers.size());
  for (std::size_t p = 0; p < to.customers.size(); ++p) {
    Arc best{-kInf, -1, static_cast<std::int32_t>(p)};
    for (std::size_t q = 0; q < to.providers.size(); ++q) {
      const double gain = tau_q[q] - Distance(to.providers[q].pos, to.customers[p]);
      if (gain > best.gain) best = Arc{gain, static_cast<std::int32_t>(q), best.p};
    }
    metrics->distances_computed += to.providers.size();
    if (best.gain < 0.0) continue;
    seed.potentials.tau_p[p] = best.gain;
    tight.push_back(best);
  }
  std::sort(tight.begin(), tight.end(), [](const Arc& a, const Arc& b) {
    return a.gain > b.gain || (a.gain == b.gain && a.p < b.p);
  });
  std::vector<std::int64_t> left(to.providers.size());
  for (std::size_t q = 0; q < left.size(); ++q) left[q] = to.providers[q].capacity;
  for (const Arc& arc : tight) {
    const auto q = static_cast<std::size_t>(arc.q);
    const std::int64_t units =
        std::min<std::int64_t>(to.weight(static_cast<std::size_t>(arc.p)), left[q]);
    if (units <= 0) continue;
    seed.matching.Add(arc.q, arc.p, static_cast<std::int32_t>(units), 0.0);
    left[q] -= units;
  }
  return seed;
}

// SSPA solver. Node ids: providers [0, nq), customers [nq, nq+np), sink
// t = nq+np. The source is implicit: Dijkstra seeds every provider with
// remaining capacity at alpha = tau(q) (reduced cost of s->q).
//
// Overflow mode (warm solves of infeasible instances only):
// nq includes one extra *virtual* provider slot at index real_nq with
// capacity = overflow and a flat-cost edge (penalty_) to every customer.
// All generic machinery — seeding, Augment's path walk, flow records,
// potentials — works on the extended index range through the
// ProviderCapacity/EdgeCost accessors; only the relax step (RelaxVirtual:
// no geometry, uniform cost) and the exports (virtual pairs become the
// unassigned ledger, the exported tau_q strips the virtual slot) are
// special-cased.
//
// Flow records: with unit customers a customer holds at most one inbound
// unit (conservation against the capacity-1 sink edge), so the assignment
// lives in a flat `serving_` array and the residual-edge test in the relax
// hot loop is a single compare. Weighted customers keep per-customer flow
// lists sorted by provider id (binary-searched, only touched off the hot
// path).
class SspaSolver {
 public:
  // `clock` started at SolveSspa entry: cpu_millis and the deadline read
  // it, so both cover the whole call, a seeded solve's concise levels
  // included.
  SspaSolver(const Problem& problem, const SspaConfig& config, const Timer& clock)
      : timer_(clock),
        problem_(problem),
        config_(config),
        warm_(config.warm),
        real_nq_(problem.providers.size()),
        overflow_(ComputeOverflow(problem, config)),
        // The virtual edge cost: 2x the bounding-box diagonal of all points
        // + 1, strictly above any real edge cost (SspaWarmStart).
        penalty_(overflow_ > 0 ? 2.0 * problem.World().Diagonal() + 1.0 : 0.0),
        nq_(real_nq_ + (overflow_ > 0 ? 1 : 0)),
        np_(problem.customers.size()),
        unit_customers_(problem.weights.empty()),
        tau_q_(nq_, 0.0),
        tau_p_(np_, 0.0),
        used_q_(nq_, 0),
        sink_flow_(np_, 0),
        serving_(unit_customers_ ? np_ : 0, -1),
        flows_(unit_customers_ ? 0 : np_),
        alpha_(nq_ + np_ + 1, kInf),
        prev_(nq_ + np_ + 1, -1),
        heap_(nq_ + np_ + 1) {
    // The hierarchical ring relax owns (or borrows) the grid; the reference
    // scan reads the customer SoA directly.
    if (np_ > 0 && config_.use_grid) {
      const SspaSharedIndex& shared = config_.shared_index;
      assert((shared.walks == nullptr || shared.grid != nullptr) && "lent walks need their grid");
      if (shared.grid != nullptr) {
        hier_ = shared.grid;
        assert(hier_->size() == np_ && "shared_index.grid must index problem.customers");
      } else {
        owned_hier_ = std::make_unique<HierarchicalGrid>(problem.customers);
        hier_ = owned_hier_.get();
      }
    } else if (np_ > 0) {
      coords_.Assign(problem.customers);
    }
    if (SeedsCold()) Seed();
    // Warm start, the caller's or the seed's: adopt its duals before the
    // floor table is built so it can be seeded consistently (the Dijkstra
    // global-floor assert checks min_tau_p_ against tau_p_ on every run).
    // Negative entries are clamped — the solver's invariants assume
    // tau >= 0 — and feasibility around the adopted flow is restored by
    // AdoptFlow before the first Dijkstra run.
    if (warm_ != nullptr) {
      const SspaPotentials& init = warm_->potentials;
      assert(init.tau_q.size() == real_nq_ && init.tau_p.size() == np_);
      for (std::size_t q = 0; q < real_nq_; ++q) tau_q_[q] = std::max(0.0, init.tau_q[q]);
      for (std::size_t p = 0; p < np_; ++p) {
        assert(std::isfinite(init.tau_p[p]) && "customer warm duals must be finite");
        tau_p_[p] = std::max(0.0, init.tau_p[p]);
      }
    }
    // The virtual provider's dual always seeds at the penalty: feasible for
    // every edge (reduced cost penalty + tau_p - penalty = tau_p >= 0), and
    // it keeps the virtual node at the bottom of the heap so real capacity
    // is exhausted before the overflow path is ever explored.
    if (overflow_ > 0) tau_q_[real_nq_] = penalty_;
    if (hier_ == nullptr) return;
    // Per-solve tau floors, and one memoized ring walk per real provider (a
    // provider never moves, so its walk is replayed on every pop): the
    // caller's kept walks, or the solver's own over the grid's layout. Both
    // are bound to the grid the same way.
    floors_ = std::make_unique<HierTauTable>(*hier_, tau_p_);
    if (config_.shared_index.walks != nullptr) {
      walks_ = config_.shared_index.walks;
    } else {
      owned_walks_.reserve(real_nq_);
      for (const Provider& provider : problem.providers) {
        owned_walks_.emplace_back(hier_->layout(), provider.pos);
      }
      walks_ = &owned_walks_;
    }
    assert(walks_->size() == real_nq_ && "lent walks must align with problem.providers");
    for (std::size_t q = 0; q < real_nq_; ++q) {
      assert((*walks_)[q].query() == problem.providers[q].pos && "walk/provider misaligned");
      (*walks_)[q].Bind(*hier_);
    }
    walk_cells_before_ = WalkCells();
  }

  SspaResult Run() {
    SspaResult result;
    result.metrics = seed_metrics_;  // the seed phase's counters and clock
    result.conceptual_edges =
        static_cast<std::uint64_t>(real_nq_) * static_cast<std::uint64_t>(np_);
    // Build-shape diagnostic: how many coarse cells the (owned or shared)
    // hierarchy subdivided, charged once per solve that consults it.
    if (hier_ != nullptr) result.metrics.hier_splits += hier_->splits();
    // Phase clocks: one timer read per phase boundary, never per relax.
    double mark = timer_.ElapsedMillis();
    const auto lap = [&](double* phase_millis) {
      const double now = timer_.ElapsedMillis();
      *phase_millis += now - mark;
      mark = now;
    };
    if (warm_ != nullptr) {
      AdoptFlow(&result.metrics);
      lap(&result.metrics.adopt_millis);
      BuildDeficitSeeds(&result.metrics);
    }
    // Overflow mode raises the target to the total weight: the virtual
    // provider absorbs exactly the demand the real capacity cannot.
    std::int64_t remaining = problem_.Gamma() + overflow_;
    // Flow adopted from a warm start already sits on tight arcs; only the
    // deficit is re-augmented. Zero on cold solves.
    for (std::size_t p = 0; p < np_; ++p) remaining -= sink_flow_[p];
    assert(remaining >= 0);
    while (remaining > 0) {
      // Cooperative deadline, checked at Dijkstra-run granularity: one run
      // + augment + potential update is the smallest step that leaves the
      // duals feasible and the partial flow capacity-respecting, so
      // breaking here always hands back a consistent (if partial) state.
      if (DeadlineBreached(&result)) break;
      const RunEnd end = Dijkstra(kInf, &result.metrics);
      // The run popped a flow-carrying provider closing a negative source
      // cycle before the sink: cancel it here, where it was met, and route
      // the deficit on the next run. Only warm starts leave such cycles.
      if (end.node >= 0 && end.node != Sink()) {
        CancelCycle(end, &result.metrics);
        continue;
      }
      assert(end.node == Sink() && "flow graph must admit gamma units");
      // A run that misses the sink is a solver bug; in Release stop here
      // rather than walk prev_ from -1. The units left unrouted surface in
      // the unassigned ledger, where callers' ledger checks report them.
      if (end.node != Sink()) break;
      const std::int64_t pushed = Augment(end.node, remaining);
      UpdatePotentials(end.dist);
      remaining -= pushed;
      ++result.metrics.augmentations;
    }
    lap(&result.metrics.augment_millis);
    // The certificate pass: proves that no negative source cycle is left,
    // cancelling any that no deficit run met. It needs every customer
    // saturated, so a deficit loop cut short (deadline or missed sink)
    // skips it.
    if (warm_ != nullptr && remaining == 0) {
      CancelSourceCycles(&result);
      lap(&result.metrics.cancel_millis);
    }
    ExtractMatching(&result.matching);
    // The unassigned ledger: per-customer demand no real provider serves —
    // overflow units routed to the virtual provider and/or units a
    // deadline breach left un-augmented. Exact complement of the matching.
    std::vector<std::int64_t> served(np_, 0);
    for (const MatchPair& pair : result.matching.pairs) {
      served[static_cast<std::size_t>(pair.customer)] += pair.units;
    }
    for (std::size_t p = 0; p < np_; ++p) {
      const std::int64_t gap = problem_.weight(p) - served[p];
      if (gap > 0) {
        result.unassigned.push_back(UnassignedUnit{static_cast<std::int32_t>(p), gap});
        result.unassigned_units += gap;
      }
    }
    // Export the final duals: on a completed solve, warm or cold, they are
    // the LP-duality witness of this matching's optimality (CertifyOptimal,
    // flow/oracle.h), and they are the warm seed for a follow-up solve on a
    // perturbed instance.
    // The virtual slot is internal and stripped — callers feed these back
    // as SspaWarmStart::potentials sized to the *real* provider array.
    result.potentials.tau_q.assign(tau_q_.begin(), tau_q_.begin() + static_cast<std::ptrdiff_t>(real_nq_));
    result.potentials.tau_p = tau_p_;
    lap(&result.metrics.extract_millis);
    result.metrics.walk_cells_built += WalkCells() - walk_cells_before_;
    result.metrics.cpu_millis = mark;
    return result;
  }

 private:
  int Sink() const { return static_cast<int>(nq_ + np_); }

  // The shape a cold solve is seeded in: grid-backed, unit customers,
  // ample capacity, and two or more occupied coarse cells to build the
  // levels from. The reference scan, capacity-limited, weighted and warm
  // solves run the plain path; the levels are weighted, so they never seed
  // again.
  bool SeedsCold() const {
    return warm_ == nullptr && hier_ != nullptr && unit_customers_ &&
           problem_.TotalCapacity() >= problem_.TotalWeight() &&
           hier_->nonempty_coarse().size() >= 2;
  }

  // The seed phase (src/flow/README.md, "Seeded cold solves"): solve the
  // coarse level cold and the fine level warm from it, both on this
  // solve's clock, then seed the customers from the fine level and install
  // that seed as this solve's warm start. The levels' work counters are
  // charged to the result, their time to seed_millis. A level cut by the
  // deadline installs no seed: Run() then takes its ordinary deadline exit
  // before the first run, with no flow and zero duals.
  void Seed() {
    CCA_TRACE_SPAN("sspa.seed");
    const double begin = timer_.ElapsedMillis();
    Problem coarse, fine;
    BuildConciseLevels(problem_, *hier_, &coarse, &fine);
    SspaConfig level_config;
    level_config.deadline_ms = config_.deadline_ms;
    SspaResult level = SspaSolver(coarse, level_config, timer_).Run();
    seed_metrics_.MergeCounters(level.metrics);
    // Without splits the fine level is the coarse one again.
    if (!level.deadline_exceeded && fine.customers.size() > coarse.customers.size()) {
      const SspaWarmStart fine_seed = SeedFrom(fine, level.potentials.tau_q, &seed_metrics_);
      level_config.warm = &fine_seed;
      level = SspaSolver(fine, level_config, timer_).Run();
      seed_metrics_.MergeCounters(level.metrics);
    }
    // A level adopts weighted concise points, not units of this problem's
    // demand: the result counts only the customers adopted from the seed.
    seed_metrics_.warm_units_adopted = 0;
    if (!level.deadline_exceeded) {
      seed_ = SeedFrom(problem_, level.potentials.tau_q, &seed_metrics_);
      warm_ = &seed_;
    }
    seed_metrics_.seed_millis = timer_.ElapsedMillis() - begin;
  }

  // Coarse entries plus fine children materialised by the ring walks.
  std::uint64_t WalkCells() const {
    std::uint64_t cells = 0;
    if (walks_ == nullptr) return cells;
    for (const HierRingWalk& walk : *walks_) cells += walk.entries() + walk.fines_built();
    return cells;
  }

  // Source-edge capacity of provider slot q; the extra virtual slot (only
  // present when overflow mode is active) holds exactly the overflow, so
  // every feasible flow still saturates the real providers.
  std::int64_t ProviderCapacity(std::size_t q) const {
    return q < real_nq_ ? problem_.providers[q].capacity : overflow_;
  }

  // Cost of edge q -> p: Euclidean for real providers, the flat penalty
  // for the virtual overflow slot.
  double EdgeCost(std::size_t q, std::size_t p) const {
    return q < real_nq_ ? Distance(problem_.providers[q].pos, problem_.customers[p])
                        : penalty_;
  }

  // Restores the warm-start invariants before the first Dijkstra run (the
  // full soundness argument lives in src/runtime/README.md). A warm solve
  // always runs in the ample regime (gamma plus the virtual overflow equals
  // the total weight — every customer saturates by the end), so previous
  // pairs that survive churn are adopted as initial flow and the duals are
  // repaired around them — four single passes, no fixpoint iteration:
  //
  //   a. Every churn-valid pair (in-range endpoints, capacity and weight
  //      respected) takes its flow provisionally. Anything else is
  //      dropped; dropped units just rejoin the augmentation deficit.
  //   b. TIGHTEN: each adopted arc raises its customer's dual to
  //      tau_p = tau_q - dist, turning the end-of-solve slack r <= 0 into
  //      the Hungarian matched-arc invariant r == 0 (so its reverse edge
  //      relaxes at exactly 0, not the clamped -r). Raising tau_p can
  //      never break another arc's forward feasibility — r only grows —
  //      so tightening needs no compensation anywhere, and it absorbs
  //      the r < 0 drift the previous solve accumulated instead of
  //      exporting it to the next one. Tightening may only RAISE values,
  //      so the floor tables stay within their monotone Raise contract.
  //   c. Forward edges q->p with a residual need tau_q <= dist + tau_p.
  //      Each tau_q is clamped to min_p(dist + tau_p). For a provider
  //      arrival seeded at +infinity this *derives* its dual, the largest
  //      feasible one. Other engine-produced seeds satisfy the condition
  //      already (the previous solve ended feasible, tightening only
  //      raised tau_p, and customer arrival seeds are minimal-feasible by
  //      construction), so for them the clamp certifies without firing; it
  //      also makes arbitrary caller-supplied duals safe. Tightened served
  //      arcs sit at dist + tau_p == tau_q, so they cap the min at
  //      exactly tau_q and no served-customer exclusion is needed.
  //   d. RELEASE: any adopted arc left with r > eps — a clamp fired
  //      below it, or a weighted customer's arcs disagreed — hands its
  //      flow back. A released arc has r > 0, i.e. it is already
  //      forward-feasible, and releasing changes no duals, so one scan
  //      suffices: no cascade is possible.
  //
  // With passes a-d done the duals are feasible on every provider and
  // customer edge Dijkstra relaxes and the adopted arcs are tight. Sink
  // edges need no repair: the sink potential stays 0 and every unsaturated
  // customer's sink edge relaxes at exactly +0, which makes each deficit
  // run target the nearest deficit. What duals cannot certify is the
  // adopted flow itself: churn (a slot freed at a full provider, or a
  // provider arrival) can leave negative residual cycles through the
  // implicit source, which augmenting paths alone never cancel. Run()
  // cancels each one where a deficit run pops its closing provider, and
  // the certificate pass after the loop (CancelSourceCycles) proves none
  // is left, so the exported duals certify the final matching optimal —
  // checked by CertifyOptimal on every Debug Resolve of AssignmentEngine
  // and on every warm outcome of bench_engine_dispatch.
  void AdoptFlow(Metrics* metrics) {
    CCA_TRACE_SPAN_VAR(span, "sspa.adopt_flow");
    struct Adopted {
      std::int32_t q, p;
      std::int64_t units;
    };
    std::vector<Adopted> adopted;
    adopted.reserve(warm_->matching.pairs.size());
    for (const MatchPair& pair : warm_->matching.pairs) {
      if (pair.provider < 0 || pair.customer < 0 || pair.units <= 0) continue;
      const auto q = static_cast<std::size_t>(pair.provider);
      const auto p = static_cast<std::size_t>(pair.customer);
      const auto units = static_cast<std::int64_t>(pair.units);
      // Only real providers are adoptable (callers never see the virtual
      // index, but a stale matching is rejected defensively).
      if (q >= real_nq_ || p >= np_) continue;
      assert(tau_q_[q] < kInf && "a provider whose dual is derived carries no flow");
      if (unit_customers_ && (units != 1 || serving_[p] >= 0)) continue;
      if (used_q_[q] + units > problem_.providers[q].capacity) continue;
      if (sink_flow_[p] + units > problem_.weight(p)) continue;
      AddFlow(q, p, units);
      used_q_[q] += units;
      sink_flow_[p] += units;
      adopted.push_back({static_cast<std::int32_t>(q), static_cast<std::int32_t>(p), units});
      metrics->warm_units_adopted += static_cast<std::uint64_t>(units);
    }
    for (const Adopted& a : adopted) {
      const auto q = static_cast<std::size_t>(a.q);
      const auto p = static_cast<std::size_t>(a.p);
      const double tight = tau_q_[q] - Distance(problem_.providers[q].pos, problem_.customers[p]);
      if (tight > tau_p_[p]) {
        tau_p_[p] = tight;
        if (floors_) floors_->Raise(p, tight);
      }
    }
    for (std::size_t q = 0; q < real_nq_; ++q) {
      const double best = TauAugmentedNn(q, tau_q_[q], metrics);
      if (best < tau_q_[q]) {
        tau_q_[q] = best;
        ++metrics->dual_repairs;
      }
    }
    for (const Adopted& a : adopted) {
      const auto q = static_cast<std::size_t>(a.q);
      const auto p = static_cast<std::size_t>(a.p);
      const double dist = Distance(problem_.providers[q].pos, problem_.customers[p]);
      const double r = dist - tau_q_[q] + tau_p_[p];
      // The epsilon absorbs the float noise potential updates accumulate.
      const double eps = 1e-7 * std::max(1.0, dist + tau_p_[p]);
      if (r <= eps) continue;
      AddFlow(q, p, -a.units);
      used_q_[q] -= a.units;
      sink_flow_[p] -= a.units;
      metrics->warm_units_adopted -= static_cast<std::uint64_t>(a.units);
    }
  }

  // min over customers p of dist(q, p) + tau_p[p], except that the caller
  // only needs values below `cutoff` (q's current tau_q): anything >=
  // cutoff certifies the dual as-is. The hierarchical form replays q's
  // ring walk with the relax's bounds against `best` in place of the sink
  // bound: the ring tail plus the global floor ends the walk, the coarse
  // and fine floors skip cells, and children are MinDist-sorted, so the
  // first child whose MinDist plus the global floor fails ends the
  // descent. Customers q itself serves need no exclusion: their arcs were
  // tightened to dist + tau_p == tau_q, so they cap the min at exactly the
  // cutoff without ever clamping it.
  double TauAugmentedNn(std::size_t q, double cutoff, Metrics* metrics) {
    const Point q_pos = problem_.providers[q].pos;
    double best = cutoff;
    if (!floors_) {
      for (std::size_t p = 0; p < np_; ++p) {
        metrics->distances_computed += 1;
        best = std::min(best, Distance(q_pos, problem_.customers[p]) + tau_p_[p]);
      }
      return best;
    }
    HierRingWalk& walk = (*walks_)[q];
    const double floor = floors_->GlobalFloor();
    for (std::size_t i = 0;; ++i) {
      const HierRingWalk::Entry* coarse = walk.At(i);
      if (coarse == nullptr || coarse->tail_before + floor >= best) break;
      if (coarse->count == 0 ||
          coarse->min_dist + floors_->CoarseFloor(coarse->cell) >= best) {
        continue;
      }
      std::size_t n = 0;
      const HierRingWalk::Fine* fines = walk.Fines(i, &n);
      for (std::size_t k = 0; k < n && fines[k].min_dist + floor < best; ++k) {
        const auto f = static_cast<std::size_t>(fines[k].fine);
        if (fines[k].min_dist + floors_->FineFloor(f) >= best) continue;  // empty: +infinity
        const CellSlice slice = hier_->FineCell(f);
        const double* taus = floors_->values() + slice.first_slot;
        metrics->distances_computed += slice.count;
        for (std::size_t s = 0; s < slice.count; ++s) {
          best = std::min(best, Distance(q_pos, Point{slice.xs[s], slice.ys[s]}) + taus[s]);
        }
      }
    }
    return best;
  }

  // One deficit customer's cheapest direct path, keyed by its label.
  struct DeficitSeed {
    double label;
    std::int32_t p, q;
  };

  // Min-heap order for the std heap algorithms. Ties go by customer index,
  // so which of two equal-cost seeds arms a run never depends on how the
  // heap algorithms order equal keys.
  static bool SeedAfter(const DeficitSeed& a, const DeficitSeed& b) {
    return a.label > b.label || (a.label == b.label && a.p > b.p);
  }

  // Label the direct path s -> q -> p -> t gets in a deficit run: what
  // RelaxForward produces for provider q at its seed label alpha = tau_q.
  double DirectLabel(std::size_t q, std::size_t p) const {
    return std::max(Distance(problem_.providers[q].pos, problem_.customers[p]) + tau_p_[p],
                    tau_q_[q]);
  }

  // The spare real provider with the cheapest direct path to p (-1 when
  // every real provider is full), and that path's label.
  DeficitSeed BestDirectPath(std::size_t p, Metrics* metrics) const {
    DeficitSeed best{kInf, static_cast<std::int32_t>(p), -1};
    for (std::size_t q = 0; q < real_nq_; ++q) {
      if (used_q_[q] >= problem_.providers[q].capacity) continue;
      ++metrics->distances_computed;
      const double label = DirectLabel(q, p);
      if (label < best.label) best = DeficitSeed{label, best.p, static_cast<std::int32_t>(q)};
    }
    return best;
  }

  // Warm solves only, once after AdoptFlow: a min-heap holding every
  // unsaturated customer's cheapest direct path, O(|deficit| * |Q|).
  void BuildDeficitSeeds(Metrics* metrics) {
    for (std::size_t p = 0; p < np_; ++p) {
      if (sink_flow_[p] >= problem_.weight(p)) continue;
      const DeficitSeed seed = BestDirectPath(p, metrics);
      if (seed.q >= 0) deficit_seeds_.push_back(seed);
    }
    std::make_heap(deficit_seeds_.begin(), deficit_seeds_.end(), SeedAfter);
  }

  // Arms a deficit run before its first pop: relaxes the cheapest direct
  // path to a deficit customer, which sets run_ub_ to a real path's cost
  // and leaves that path in the heap for the run to finish. Setting run_ub_
  // alone would prune the path it stands for and strand the sink.
  //
  // The heap is lazy: a stale top is re-priced and pushed back, or dropped
  // once saturated, and a top that re-evaluates to its own key is armed.
  // Between augmenting paths a direct label only grows, so that top is
  // usually the minimum; a cancelled source cycle frees a unit at a
  // provider no key was priced against, so after one it may not be
  // (src/flow/README.md). Correctness never rests on this ordering:
  // whatever gets relaxed is a real path at its current label. With no
  // spare real provider left (overflow mode's endgame) the heap is dropped
  // and the remaining runs start unarmed.
  void SeedDeficitPath(Metrics* metrics) {
    while (!deficit_seeds_.empty()) {
      const DeficitSeed top = deficit_seeds_.front();
      const auto p = static_cast<std::size_t>(top.p);
      const auto q = static_cast<std::size_t>(top.q);
      if (used_q_[q] < problem_.providers[q].capacity && sink_flow_[p] < problem_.weight(p)) {
        const double label = DirectLabel(q, p);
        if (label <= top.label) {
          RelaxForward(q, p, label, metrics);
          return;
        }
      }
      std::pop_heap(deficit_seeds_.begin(), deficit_seeds_.end(), SeedAfter);
      deficit_seeds_.pop_back();
      if (sink_flow_[p] >= problem_.weight(p)) continue;
      const DeficitSeed fresh = BestDirectPath(p, metrics);
      if (fresh.q < 0) {
        deficit_seeds_.clear();  // every real provider is full
        return;
      }
      deficit_seeds_.push_back(fresh);
      std::push_heap(deficit_seeds_.begin(), deficit_seeds_.end(), SeedAfter);
    }
  }

  // Where a Dijkstra run stopped: the sink (an augmenting path), a
  // flow-carrying provider closing a negative source cycle, or -1 (none).
  struct RunEnd {
    int node;
    double dist;
  };

  // The warm solve's optimality certificate for the source arcs, run once
  // every customer is saturated. With reduced costs >= 0 on provider and
  // customer edges, a negative residual cycle runs s -> q_a ~> u -> s from
  // a spare provider to a flow-carrying one and costs alpha(u) - tau_q(u)
  // (src/runtime/README.md, "Warm-start soundness"). The deficit runs
  // already cancel every such cycle they pop before the sink, so this pass
  // usually exits on its first O(|Q|) test: no spare provider seeds below
  // the highest flow-carrying dual. Otherwise one run and one cancellation
  // per remaining cycle, until a run finds none and raises the duals it
  // labelled to B, so the next solve's exit test passes without a run; the
  // deadline is checked once per cancellation, so a solve that cancels
  // nothing never checks it.
  void CancelSourceCycles(SspaResult* result) {
    CCA_TRACE_SPAN("sspa.cancel_cycles");
    for (std::size_t p = 0; p < np_; ++p) assert(sink_flow_[p] == problem_.weight(p));
    while (true) {
      // B = max tau_q over flow-carrying providers: a cycle needs
      // alpha(u) < tau_q(u) <= B, so labels >= B can close none, and a run
      // needs a spare provider seeding below B.
      double bound = -kInf;
      double lowest_seed = kInf;
      for (std::size_t q = 0; q < nq_; ++q) {
        if (used_q_[q] > 0) bound = std::max(bound, tau_q_[q]);
        if (used_q_[q] < ProviderCapacity(q)) lowest_seed = std::min(lowest_seed, tau_q_[q]);
      }
      // ClosesSourceCycle's epsilon: a previous cycle-free run leaves its
      // raised spare duals at tau + (B - tau), which can land one ulp
      // under B.
      if (lowest_seed >= bound - 1e-9 * std::max(1.0, bound)) return;
      const RunEnd end = Dijkstra(bound, &result->metrics);
      if (end.node < 0) {
        // No cycle: every label below B is final and every pruned one is
        // >= B, so raising the labelled nodes to B keeps every reduced
        // cost >= 0 (CancelCycle's argument). It lifts each spare seed to
        // >= B and leaves each flow-carrying dual <= B, so the exported
        // duals meet the source condition of CertifyOptimal.
        UpdatePotentials(bound);
        return;
      }
      CancelCycle(end, &result->metrics);
      if (DeadlineBreached(result)) return;
    }
  }

  // True when popping provider slot q at label `key` closes a negative
  // source cycle s -> q_a ~> q -> s: q carries flow, and the closing q -> s
  // arc makes the cycle cost key - tau_q(q) < 0. The epsilon absorbs the
  // float noise potential updates accumulate.
  bool ClosesSourceCycle(std::size_t q, double key) const {
    return used_q_[q] > 0 && key < tau_q_[q] - 1e-9 * std::max(1.0, tau_q_[q]);
  }

  // The one cancel step, for a run that ended on a cycle-closing provider
  // (a deficit run or a certificate run): push the bottleneck around the
  // cycle — q_a gains flow, the closing provider hands units back to the
  // source, customer loads stay — and raise the potentials at the cycle's
  // label. Every relax such a run pruned had a label >= that one (the sink
  // bound, or B, lies at or above it), so the raise-only update keeps every
  // reduced cost >= 0. Counts as one augmentation.
  void CancelCycle(const RunEnd& end, Metrics* metrics) {
    Augment(end.node, used_q_[static_cast<std::size_t>(end.node)]);
    UpdatePotentials(end.dist);
    ++metrics->augmentations;
    ++metrics->source_cycles_cancelled;
  }

  bool DeadlineBreached(SspaResult* result) const {
    if (config_.deadline_ms <= 0.0 || timer_.ElapsedMillis() <= config_.deadline_ms) return false;
    result->deadline_exceeded = true;
    return true;
  }

  // One Dijkstra run over the residual graph with reduced costs. Fills
  // `touched_` with de-heaped nodes; the potential update raises those
  // with alpha below the returned dist. Every run ends at the sink or at
  // the first popped provider that closes a negative source cycle
  // (ClosesSourceCycle), whichever pops first.
  //   cycle_bound == kInf: a deficit run, armed by SeedDeficitPath.
  //   cycle_bound <  kInf: a certificate run (CancelSourceCycles); seeds
  //     only spare providers below the bound, prunes relaxes against it in
  //     place of the sink bound (no customer has sink residual), and gives
  //     up at the first label >= the bound.
  RunEnd Dijkstra(double cycle_bound, Metrics* metrics) {
    CCA_TRACE_SPAN_VAR(span, "sspa.dijkstra");
    const std::uint64_t pops0 = metrics->dijkstra_pops;
    const std::uint64_t relaxes0 = metrics->dijkstra_relaxes;
    ++metrics->dijkstra_runs;
    const bool cancel = cycle_bound < kInf;
    // Reset only the labels the previous run set, O(labelled) instead of
    // O(|Q| + |P|): every labelled node was queued, so it was either popped
    // (touched_) or is still in the heap.
    for (int v : touched_) ResetLabel(v);
    for (int v : heap_.ids()) ResetLabel(v);
    heap_.Clear();
    touched_.clear();
    run_ub_ = cycle_bound;
    if (floors_) {
      // Floor of tau(p) over every customer: together with a ring's
      // geometric mindist it lower-bounds the reduced cost of all edges
      // into the ring. The floor table keeps it current across
      // augmentations (only touched cells were updated, and the cached
      // global min rescans coarse floors only when displaced).
      min_tau_p_ = floors_->GlobalFloor();
      assert(min_tau_p_ == *std::min_element(tau_p_.begin(), tau_p_.end()));
    }
    for (std::size_t q = 0; q < nq_; ++q) {
      if (used_q_[q] < ProviderCapacity(q) && tau_q_[q] < cycle_bound) {
        alpha_[q] = tau_q_[q];  // reached from the source
        heap_.PushOrDecrease(static_cast<int>(q), alpha_[q]);
      }
    }
    if (!cancel) SeedDeficitPath(metrics);
    RunEnd end{-1, kInf};
    while (!heap_.empty()) {
      const auto [u, key] = heap_.PopMin();
      ++metrics->dijkstra_pops;
      touched_.push_back(u);
      if (u == Sink()) {
        end = RunEnd{u, key};
        break;
      }
      if (key >= cycle_bound) break;
      if (static_cast<std::size_t>(u) < nq_) {
        if (ClosesSourceCycle(static_cast<std::size_t>(u), key)) {
          end = RunEnd{u, key};
          break;
        }
        if (overflow_ > 0 && static_cast<std::size_t>(u) == real_nq_) {
          RelaxVirtual(metrics);
        } else if (floors_) {
          RelaxProviderHier(static_cast<std::size_t>(u), metrics);
        } else {
          RelaxProviderReference(static_cast<std::size_t>(u), metrics);
        }
      } else {
        RelaxCustomer(static_cast<std::size_t>(u) - nq_, metrics);
      }
    }
    span.Arg("pops", metrics->dijkstra_pops - pops0);
    span.Arg("relaxes", metrics->dijkstra_relaxes - relaxes0);
    return end;
  }

  void ResetLabel(int node) {
    alpha_[static_cast<std::size_t>(node)] = kInf;
    prev_[static_cast<std::size_t>(node)] = -1;
  }

  void Relax(int node, double cand, int from) {
    if (cand < alpha_[static_cast<std::size_t>(node)]) {
      alpha_[static_cast<std::size_t>(node)] = cand;
      prev_[static_cast<std::size_t>(node)] = from;
      heap_.PushOrDecrease(node, cand);
    }
  }

  // Relaxes q -> p at label `cand`; p with sink residual completes an
  // s~>q->p->t path of cost cand (the sink edge relaxes at +0, see
  // RelaxCustomer), which upper-bounds this run's shortest-path cost and so
  // arms every downstream bound even before the sink holds a tentative
  // label.
  void RelaxForward(std::size_t q, std::size_t p, double cand, Metrics* metrics) {
    ++metrics->dijkstra_relaxes;
    if (sink_flow_[p] < problem_.weight(p) && cand < run_ub_) run_ub_ = cand;
    Relax(static_cast<int>(nq_ + p), cand, static_cast<int>(q));
  }

  // Certified upper bound on this run's shortest-path cost.
  double SinkUpperBound() const {
    return std::min(alpha_[static_cast<std::size_t>(Sink())], run_ub_);
  }

  // The reference relax: every customer on every provider pop, skipping
  // (before touching the heap) candidates whose label could not beat the
  // certified upper bound min(alpha(t), run_ub) — the per-candidate
  // analogue of the hierarchical path's cell bounds (the README invariant
  // covers both).
  void RelaxProviderReference(std::size_t q, Metrics* metrics) {
    const Point q_pos = problem_.providers[q].pos;
    const double base = alpha_[q] - tau_q_[q];
    double dist[kDistanceBlock];
    for (std::size_t begin = 0; begin < np_; begin += kDistanceBlock) {
      const std::size_t block = std::min(kDistanceBlock, np_ - begin);
      DistanceBlock(q_pos, coords_.x.data() + begin, coords_.y.data() + begin, block, dist);
      metrics->distances_computed += block;
      for (std::size_t i = 0; i < block; ++i) {
        const std::size_t p = begin + i;
        // A saturated unit edge only has its reverse direction left.
        if (unit_customers_ && serving_[p] == static_cast<std::int32_t>(q)) continue;
        const double cand = std::max(dist[i] + base + tau_p_[p], alpha_[q]);
        if (cand >= SinkUpperBound()) {
          ++metrics->relaxes_pruned;
          continue;
        }
        RelaxForward(q, p, cand, metrics);
      }
    }
  }

  // Fused-kernel relax over one fine cell: DistanceBlockSelect rejects
  // every candidate whose label lower bound
  //     dist + base + tau(p)  (base = alpha(q) - tau(q))
  // cannot beat the certified upper bound min(alpha(t), run_ub) — evaluated
  // in squared space against the slot-aligned tau slice, so rejected lanes
  // never pay a sqrt — and compacts the survivors, which are the only lanes
  // the heap-relax loop below ever touches. The cutoff is re-read per block
  // because run_ub only tightens as survivors complete s~>q->p->t paths.
  void RelaxSliceSelect(std::size_t q, const Point& q_pos, const CellSlice& slice,
                        double base, Metrics* metrics) {
    std::int32_t keep[kDistanceBlock];
    double d2[kDistanceBlock];
    const double* taus = floors_->values() + slice.first_slot;
    for (std::size_t begin = 0; begin < slice.count; begin += kDistanceBlock) {
      const std::size_t block = std::min(kDistanceBlock, slice.count - begin);
      const double cutoff = SinkUpperBound() - base;
      const std::size_t kept = DistanceBlockSelect(q_pos, slice.xs + begin, slice.ys + begin,
                                                   taus + begin, block, cutoff, keep, d2);
      metrics->relaxes_pruned += block - kept;
      for (std::size_t i = 0; i < kept; ++i) {
        const auto p =
            static_cast<std::size_t>(slice.ids[begin + static_cast<std::size_t>(keep[i])]);
        // A saturated unit edge only has its reverse direction left.
        if (unit_customers_ && serving_[p] == static_cast<std::int32_t>(q)) continue;
        // Exact recheck against the *current* bound before rooting: an
        // earlier survivor may have tightened run_ub below this lane's
        // label (the common case — the first relax of a near cell often
        // closes a cheaper complete path), so the block-start kernel
        // verdict is necessary but no longer sufficient. Still in squared
        // space: only lanes that will actually be relaxed pay the sqrt.
        const double ub = SinkUpperBound();
        const double r = ub - base - tau_p_[p];
        if (alpha_[q] >= ub || r <= 0.0 || d2[i] >= r * r) {
          ++metrics->relaxes_pruned;
          continue;
        }
        ++metrics->distances_computed;
        RelaxForward(q, p, std::max(std::sqrt(d2[i]) + base + tau_p_[p], alpha_[q]), metrics);
      }
    }
  }

  // Hierarchical ring relax: replay q's memoized HierRingWalk — coarse
  // cells in rings of increasing minimum distance from q — and stop as soon
  // as the lower bound on the label any remaining customer could receive
  //     alpha(q) + max(TailMinDist - tau(q) + min_p tau(p), 0)
  // reaches the certified upper bound: such labels can neither beat the
  // shortest path of this run nor move the potentials afterwards (the
  // invariant is spelled out in src/flow/README.md). Three nested bounds,
  // each a certified reduced-cost lower bound so the matchings stay
  // identical to the reference (src/geo/README.md): the coarse ring tail
  // (global floor), the coarse cell (aggregated coarse floor, the O(1)
  // tail exit), and the fine cell (its own floor), with the fused kernel
  // below that. The walk caches geometry only (cell order, MinDists, the
  // tail bounds, resident counts); every floor, label and upper bound is
  // read live, so the replay visits and prunes exactly what a fresh ring
  // cursor would. The charging unit is the fine cells actually opened —
  // coarse-tail rejections never touch the fetch ledger.
  void RelaxProviderHier(std::size_t q, Metrics* metrics) {
    const HierarchicalGrid& grid = *hier_;
    const Point q_pos = problem_.providers[q].pos;
    HierRingWalk& walk = (*walks_)[q];
    const double base = alpha_[q] - tau_q_[q];
    const double slack = base + min_tau_p_;
    int last_ring = -1;
    std::uint64_t opened = 0;
    for (std::size_t i = 0;; ++i) {
      const HierRingWalk::Entry* coarse = walk.At(i);
      if (coarse == nullptr) break;  // every coarse cell served, nothing left
      // A listed cell that is empty in this grid: skipping it changes no
      // bound (tail bounds are per entry, counts add 0).
      if (coarse->count == 0) continue;
      // `sink_ub` only shrinks while cells are scanned (run_ub_ picks up
      // completed s~>t paths), so re-read it per coarse cell.
      const double sink_ub = SinkUpperBound();
      if (std::max(coarse->tail_before + slack, alpha_[q]) >= sink_ub) {
        metrics->relaxes_pruned += coarse->remaining_before;
        break;
      }
      if (coarse->ring != last_ring) {
        last_ring = coarse->ring;
        ++metrics->grid_rings_scanned;
      }
      // The O(1) coarse-tail exit: the aggregated floor bounds every child,
      // so a failed coarse cell retires all of its residents in one compare
      // (nothing between the sink_ub read and here tightens run_ub_).
      const double coarse_bound = coarse->min_dist + base + floors_->CoarseFloor(coarse->cell);
      if (std::max(coarse_bound, alpha_[q]) >= sink_ub) {
        metrics->relaxes_pruned += coarse->count;
        ++metrics->coarse_tails_pruned;
        continue;
      }
      ++metrics->coarse_cells_descended;
      // Descend: occupied children, nearest-first (ties by ascending fine
      // id) so run_ub_ tightens off the close ones before the far ones are
      // bounded — same reason ring cells are served mindist-sorted.
      std::size_t n = 0;
      const HierRingWalk::Fine* fines = walk.Fines(i, &n);
      std::uint32_t occupied_left = coarse->fines_occupied;
      for (std::size_t k = 0; k < n; ++k) {
        // Re-read per fine cell: relaxing a sibling can tighten run_ub_.
        const double ub = SinkUpperBound();
        // Early exit: every fine floor is >= min_tau_p_ and the children
        // are sorted by min_dist, so once the global-floor bound fails here
        // it fails (and so does each own-floor bound) for every later child
        // too; pruning never moves ub. Retire the rest in bulk.
        if (std::max(fines[k].min_dist + base + min_tau_p_, alpha_[q]) >= ub) {
          metrics->relaxes_pruned += fines[k].suffix_residents;
          metrics->cells_pruned += occupied_left;
          break;
        }
        const auto f = static_cast<std::size_t>(fines[k].fine);
        const std::size_t residents = grid.fine_cell_end(f) - grid.fine_cell_begin(f);
        if (residents == 0) continue;  // listed by the walk, empty in this grid
        --occupied_left;
        const double fine_bound = fines[k].min_dist + base + floors_->FineFloor(f);
        if (std::max(fine_bound, alpha_[q]) >= ub) {
          metrics->relaxes_pruned += residents;
          ++metrics->cells_pruned;
          continue;
        }
        ++opened;
        RelaxSliceSelect(q, q_pos, grid.FineCell(f), base, metrics);
      }
    }
    metrics->grid_cursor_cells += opened;
    metrics->index_node_accesses += opened;
  }

  // Relax step for the virtual overflow slot: one flat-penalty edge to
  // every customer, scanned densely. The penalty dominates every real
  // distance by construction, so this node sits at the bottom of the heap
  // and pops only on runs where no cheaper real residual path reaches the
  // sink — the dense scan is not a hot path, and the run_ub prune still
  // skips customers that cannot beat the current certified upper bound.
  void RelaxVirtual(Metrics* metrics) {
    const std::size_t q = real_nq_;
    const double base = alpha_[q] - tau_q_[q] + penalty_;
    for (std::size_t p = 0; p < np_; ++p) {
      // A saturated unit edge only has its reverse direction left.
      if (unit_customers_ && serving_[p] == static_cast<std::int32_t>(q)) continue;
      const double cand = std::max(base + tau_p_[p], alpha_[q]);
      if (cand >= SinkUpperBound()) {
        ++metrics->relaxes_pruned;
        continue;
      }
      RelaxForward(q, p, cand, metrics);
    }
  }

  void RelaxCustomer(std::size_t p, Metrics* metrics) {
    // Sink edge (cost 0, sink potential 0, reduced cost clamped from
    // -tau_p to +0): every unsaturated customer relaxes at its own label,
    // making each run target the nearest deficit (the transportation-SSP
    // reading in AdoptFlow's comment).
    if (sink_flow_[p] < problem_.weight(p)) {
      ++metrics->dijkstra_relaxes;
      Relax(Sink(), alpha_[nq_ + p], static_cast<int>(nq_ + p));
    }
    // Reverse edges toward providers currently serving p.
    ForEachFlow(p, [&](std::int32_t provider, std::int64_t /*units*/) {
      ++metrics->dijkstra_relaxes;
      const auto q = static_cast<std::size_t>(provider);
      const double w = -EdgeCost(q, p) - tau_p_[p] + tau_q_[q];
      Relax(provider, alpha_[nq_ + p] + std::max(w, 0.0), static_cast<int>(nq_ + p));
    });
  }

  // Traces prev_ pointers back from `end` and pushes the bottleneck flow.
  // `end` is the sink (an augmenting path: one more unit of demand served)
  // or a flow-carrying provider closing a source cycle (its last hop is a
  // reverse edge, and the closing u -> s arc hands the units back to the
  // source, so customer loads stay unchanged).
  std::int64_t Augment(int end, std::int64_t limit) {
    // First pass: find the bottleneck.
    std::int64_t push = limit;
    int v = end;
    while (true) {
      const int u = prev_[static_cast<std::size_t>(v)];
      if (v == Sink()) {
        const auto p = static_cast<std::size_t>(u) - nq_;
        push = std::min<std::int64_t>(push, problem_.weight(p) - sink_flow_[p]);
      } else if (static_cast<std::size_t>(v) < nq_ && u >= 0) {
        // Reverse edge p->q: limited by the units currently flowing.
        const auto p = static_cast<std::size_t>(u) - nq_;
        push = std::min<std::int64_t>(push, FlowUnits(static_cast<std::size_t>(v), p));
      } else if (static_cast<std::size_t>(v) >= nq_) {
        if (unit_customers_) push = std::min<std::int64_t>(push, 1);
      }
      if (u < 0) {
        // v is the first provider, fed by the source edge.
        const auto q = static_cast<std::size_t>(v);
        push = std::min<std::int64_t>(push, ProviderCapacity(q) - used_q_[q]);
        break;
      }
      v = u;
    }
    // Second pass: apply.
    if (end != Sink()) used_q_[static_cast<std::size_t>(end)] -= push;
    v = end;
    while (true) {
      const int u = prev_[static_cast<std::size_t>(v)];
      if (v == Sink()) {
        sink_flow_[static_cast<std::size_t>(u) - nq_] += push;
      } else if (static_cast<std::size_t>(v) < nq_ && u >= 0) {
        AddFlow(static_cast<std::size_t>(v), static_cast<std::size_t>(u) - nq_, -push);
      } else if (static_cast<std::size_t>(v) >= nq_ && u >= 0 &&
                 static_cast<std::size_t>(u) < nq_) {
        AddFlow(static_cast<std::size_t>(u), static_cast<std::size_t>(v) - nq_, push);
      }
      if (u < 0) {
        used_q_[static_cast<std::size_t>(v)] += push;
        break;
      }
      v = u;
    }
    return push;
  }

  void UpdatePotentials(double d) {
    for (int u : touched_) {
      const double delta = d - alpha_[static_cast<std::size_t>(u)];
      if (delta <= 0.0) continue;
      if (static_cast<std::size_t>(u) < nq_) {
        tau_q_[static_cast<std::size_t>(u)] += delta;
      } else if (static_cast<std::size_t>(u) < nq_ + np_) {
        const std::size_t p = static_cast<std::size_t>(u) - nq_;
        tau_p_[p] += delta;
        // Customer potentials only grow, so the incremental floor update
        // stays within the floor table's monotone contract. Only the
        // touched fine cells and the coarse cells they cascade into do any
        // work.
        if (floors_) floors_->Raise(p, tau_p_[p]);
      }
    }
  }

  // --- flow records ---------------------------------------------------------

  template <typename Fn>
  void ForEachFlow(std::size_t p, Fn&& fn) const {
    if (unit_customers_) {
      if (serving_[p] >= 0) fn(serving_[p], std::int64_t{1});
      return;
    }
    for (const auto& f : flows_[p]) fn(f.provider, f.units);
  }

  std::int64_t FlowUnits(std::size_t q, std::size_t p) const {
    if (unit_customers_) {
      return serving_[p] == static_cast<std::int32_t>(q) ? 1 : 0;
    }
    const auto& list = flows_[p];
    const auto it = std::lower_bound(
        list.begin(), list.end(), static_cast<std::int32_t>(q),
        [](const FlowRec& f, std::int32_t provider) { return f.provider < provider; });
    return (it != list.end() && it->provider == static_cast<std::int32_t>(q)) ? it->units : 0;
  }

  void AddFlow(std::size_t q, std::size_t p, std::int64_t delta) {
    if (unit_customers_) {
      if (delta > 0) {
        assert(delta == 1 && serving_[p] < 0);
        serving_[p] = static_cast<std::int32_t>(q);
      } else {
        assert(delta == -1 && serving_[p] == static_cast<std::int32_t>(q));
        serving_[p] = -1;
      }
      return;
    }
    auto& list = flows_[p];
    const auto it = std::lower_bound(
        list.begin(), list.end(), static_cast<std::int32_t>(q),
        [](const FlowRec& f, std::int32_t provider) { return f.provider < provider; });
    if (it != list.end() && it->provider == static_cast<std::int32_t>(q)) {
      it->units += delta;
      assert(it->units >= 0);
      if (it->units == 0) list.erase(it);
      return;
    }
    assert(delta > 0);
    list.insert(it, FlowRec{static_cast<std::int32_t>(q), delta});
  }

  void ExtractMatching(Matching* matching) const {
    for (std::size_t p = 0; p < np_; ++p) {
      ForEachFlow(p, [&](std::int32_t provider, std::int64_t units) {
        // Units on the virtual overflow slot are demand no real provider
        // can serve; they surface in SspaResult::unassigned, never in the
        // matching (whose cost stays penalty-free).
        if (overflow_ > 0 && static_cast<std::size_t>(provider) == real_nq_) return;
        matching->Add(provider, static_cast<std::int32_t>(p),
                      static_cast<std::int32_t>(units),
                      Distance(problem_.providers[static_cast<std::size_t>(provider)].pos,
                               problem_.customers[p]));
      });
    }
  }

  struct FlowRec {
    std::int32_t provider;
    std::int64_t units;
  };

  // Started at SolveSspa entry (cpu_millis and the deadline both read it).
  const Timer& timer_;
  const Problem& problem_;
  const SspaConfig& config_;
  const SspaWarmStart* warm_;  // config_.warm, or &seed_ once Seed() installs it
  SspaWarmStart seed_;         // a seeded cold solve's warm start
  Metrics seed_metrics_;       // the seed levels' counters, and seed_millis
  // Declaration order matters: the ctor init list derives overflow_ and
  // penalty_ from the problem, then nq_ = real_nq_ + (overflow_ > 0).
  std::size_t real_nq_;        // providers the caller knows about
  std::int64_t overflow_ = 0;  // virtual slot capacity; 0 = no virtual slot
  double penalty_ = 0.0;       // flat virtual edge cost (> any real distance)
  std::size_t nq_;             // real_nq_ plus the virtual slot if active
  std::size_t np_;
  bool unit_customers_;
  PointsSoA coords_;  // reference scan only
  std::unique_ptr<HierarchicalGrid> owned_hier_;  // null when borrowing shared_index.grid
  const HierarchicalGrid* hier_ = nullptr;        // set iff the ring relax is active
  std::unique_ptr<HierTauTable> floors_;          // tau_p floors over hier_
  std::vector<HierRingWalk> owned_walks_;  // empty when borrowing shared_index.walks
  std::vector<HierRingWalk>* walks_ = nullptr;  // per real provider, bound to hier_
  std::uint64_t walk_cells_before_ = 0;         // WalkCells() when the solve began
  double min_tau_p_ = 0.0;
  double run_ub_ = kInf;  // best known complete-path cost this Dijkstra run
  std::vector<DeficitSeed> deficit_seeds_;  // warm solves: SeedDeficitPath's lazy heap
  std::vector<double> tau_q_;
  std::vector<double> tau_p_;
  std::vector<std::int64_t> used_q_;
  std::vector<std::int64_t> sink_flow_;
  std::vector<std::int32_t> serving_;        // unit customers: provider or -1
  std::vector<std::vector<FlowRec>> flows_;  // weighted: sorted by provider
  std::vector<double> alpha_;
  std::vector<int> prev_;
  IndexedHeap heap_;
  std::vector<int> touched_;  // popped this run (the last run until the next)
};

}  // namespace

SspaResult SolveSspa(const Problem& problem, const SspaConfig& config) {
  CCA_TRACE_SPAN_VAR(span, "sspa.solve");
  const Timer clock;
  SspaResult result = SspaSolver(problem, config, clock).Run();
  span.Arg("augmentations", result.metrics.augmentations);
  span.Arg("pops", result.metrics.dijkstra_pops);
  span.Arg("adopted", result.metrics.warm_units_adopted);
  return result;
}

SspaResult SolveSspa(const Problem& problem) { return SolveSspa(problem, SspaConfig{}); }

}  // namespace cca
