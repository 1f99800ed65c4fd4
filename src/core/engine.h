// Incremental SSPA engine: the shared machinery of RIA, NIA and IDA.
//
// The engine maintains the growing flow subgraph Esub (paper Section 3),
// runs reduced-cost Dijkstra over it, augments accepted shortest paths, and
// keeps node potentials consistent. The exact algorithms differ only in how
// they *discover* edges (range searches vs. incremental NN) and in the
// Theorem-1 bound they test shortest paths against; both concerns live in
// the per-algorithm drivers (ria.cc / nia.cc / ida.cc).
//
// Potential convention (DESIGN.md Section 3.1): tau(s) = tau(t) = 0 are
// never updated, so the reduced cost of an s~>t path equals its *real*
// cost. Consequences used throughout:
//   * ComputeShortestPath() returns the true incremental cost of the next
//     assignment, which is monotonically non-decreasing across accepted
//     augmentations (classic SSPA lemma);
//   * the Theorem-1 validity test for RIA/NIA simplifies to
//     "path cost <= minimum unexplored edge length", with no tau_max slack;
//   * for IDA, ProviderBound(q) returns a certified lower bound on the
//     real distance from the source to q, so "path cost <= bound(q) +
//     dist(q, next NN of q)" is a sound acceptance test that dominates the
//     paper's tau_max-based test.
//
// The engine also implements:
//   * the Theorem-2 fast path (FastAssign): while no provider is full,
//     assignments are made directly from edge pops without Dijkstra, with
//     potentials maintained lazily in closed form;
//   * PUA (paper Algorithm 5): inserting an edge into a live Dijkstra run
//     repairs distances with a decrease-key cascade and resumes, instead of
//     recomputing from scratch;
//   * weighted customers (sink capacities > 1, a non-empty
//     Problem::weights) with bottleneck multi-unit augmentation, required
//     by the CA concise matching (Section 4.2).
#ifndef CCA_CORE_ENGINE_H_
#define CCA_CORE_ENGINE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/indexed_heap.h"
#include "common/metrics.h"
#include "core/matching.h"
#include "core/problem.h"

namespace cca {

class IncrementalEngine {
 public:
  IncrementalEngine(const Problem& problem, Metrics* metrics);

  // --- subgraph growth ------------------------------------------------------

  // Adds e(q, customer) with length `dist` to Esub and returns its edge id.
  // If a Dijkstra run is live, it is repaired in place (PUA); otherwise the
  // next ComputeShortestPath() starts fresh.
  int InsertEdge(int provider, int customer, double dist);

  // --- Theorem-2 fast path --------------------------------------------------

  // True while no provider is full and no Dijkstra has run yet; in this
  // state IDA assigns by popping globally-shortest edges (Theorem 2).
  bool fast_mode() const { return fast_mode_; }

  // Directly assigns through edge `edge_id` (which the caller must have
  // just popped as the globally shortest pending edge, and inserted).
  // Returns the number of units assigned (0 if the customer is already
  // saturated). May end the fast phase if the provider becomes full.
  std::int64_t FastAssign(int edge_id);

  // --- general phase --------------------------------------------------------

  // Shortest s~>t path cost on the current subgraph (+inf if the sink is
  // unreachable). Resumes a live repaired run when possible.
  double ComputeShortestPath();

  // Augments the last computed path (must be finite) and updates
  // potentials; ends the current run.
  void AcceptPath();

  // --- bound queries (Theorem-1 tests) ---------------------------------------

  // Certified lower bound on the real distance from the source to provider
  // q in the *current* residual graph: 0 for non-full providers, else
  // derived from the latest Dijkstra run. Adding dist(q, p) lower-bounds
  // the cost of any path through an unexplored edge out of q.
  double ProviderBound(int provider) const;

  bool IsProviderFull(int provider) const;
  // Units still assignable to `customer` (weight - current sink flow).
  std::int64_t CustomerResidual(int customer) const;

  std::int64_t assigned() const { return assigned_; }
  std::int64_t gamma() const { return gamma_; }
  bool Done() const { return assigned_ >= gamma_; }

  // Maximum provider potential; reported in metrics and used by tests.
  double tau_max() const { return tau_max_; }

  // --- results ----------------------------------------------------------------

  Matching BuildMatching() const;

  // Test hook: verifies that every residual edge has non-negative reduced
  // cost (the invariant all correctness rests on).
  bool CheckReducedCosts(std::string* error) const;

  // Test hooks exposing the node potentials (used to replay the paper's
  // Figure 3 walk-through step by step).
  double DebugProviderTau(int provider) const { return TauQ(provider); }
  double DebugCustomerTau(int customer) const;
  // Real cost of the most recent accepted augmenting path.
  double last_path_cost() const { return last_d_; }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct EdgeRec {
    std::int32_t provider;
    std::int32_t cust;  // local customer index
    double dist;
    std::int64_t flow;
  };

  struct CustState {
    std::int32_t global_id;
    std::int32_t weight;
    std::int64_t sink_flow = 0;
    double tau = 0.0;
    // Length of the shortest forward-residual incident edge; drives the
    // closed-form lazy potential during the fast phase.
    double min_fwd = kInf;
    std::vector<std::int32_t> edges;
  };

  // Node ids: 0 = sink, 1..nq = providers, nq+1+i = local customer i.
  int SinkNode() const { return 0; }
  int ProviderNode(int q) const { return 1 + q; }
  int CustomerNode(int c) const { return 1 + static_cast<int>(nq_) + c; }
  bool IsProviderNode(int node) const { return node >= 1 && node <= static_cast<int>(nq_); }
  int ProviderOf(int node) const { return node - 1; }
  int CustomerOf(int node) const { return node - 1 - static_cast<int>(nq_); }

  double TauQ(int q) const { return tau_q_offset_ + tau_q_delta_[static_cast<std::size_t>(q)]; }
  std::int64_t EdgeCap(const EdgeRec& e) const;
  double ReducedForward(const EdgeRec& e) const;
  double ReducedBackward(const EdgeRec& e) const;

  int LocalCustomer(int global_id);  // materialises on demand
  void GrowNodeArrays();

  // Switches from the lazy fast phase to eager potentials.
  void EnsureGeneralMode();
  void RecomputeMinFwd(CustState* cust);

  // Dijkstra internals.
  void StartFreshRun();
  void ExpandNode(int node);
  void RelaxInto(int node, double cand, int from_node, int via_edge);
  void RunMainLoop();
  void RepairAfterInsert(int edge_id);

  const Problem& problem_;
  Metrics* metrics_;

  std::size_t nq_;
  // Unweighted problem: provider->customer edges have capacity 1 (the exact
  // CCA setting). Weighted customers leave them node-bounded.
  bool unit_;
  std::int64_t gamma_;
  std::int64_t assigned_ = 0;

  // Providers.
  std::vector<std::int64_t> used_;
  std::vector<double> tau_q_delta_;
  double tau_q_offset_ = 0.0;
  int full_count_ = 0;
  double tau_max_ = 0.0;

  // Customers (materialised lazily). cust_index_ maps a global customer id
  // to its local index, or -1 before materialisation.
  std::vector<CustState> custs_;
  std::vector<std::int32_t> cust_index_;

  std::vector<EdgeRec> edges_;
  std::vector<std::vector<std::int32_t>> q_adj_;

  // Fast phase bookkeeping.
  bool fast_mode_ = true;
  double last_d_ = 0.0;  // most recent accepted path cost (monotone)

  // Dijkstra state (epoch-stamped, sized to node count).
  std::vector<double> alpha_;
  std::vector<std::int32_t> prev_node_;
  std::vector<std::int32_t> prev_edge_;
  std::vector<std::uint32_t> pop_epoch_;
  std::vector<std::uint32_t> touch_epoch_;
  std::vector<int> touched_;  // nodes popped this run (for potential updates)
  std::uint32_t epoch_ = 0;
  IndexedHeap hd_;  // main Dijkstra heap
  IndexedHeap hf_;  // PUA repair heap
  double sink_alpha_ = kInf;
  int sink_prev_cust_ = -1;  // customer node feeding the sink
  bool run_live_ = false;
  bool repair_mode_ = false;  // PUA cascade in progress
};

}  // namespace cca

#endif  // CCA_CORE_ENGINE_H_
