#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cca {

IncrementalEngine::IncrementalEngine(const Problem& problem, Metrics* metrics)
    : problem_(problem),
      metrics_(metrics),
      nq_(problem.providers.size()),
      unit_(problem.weights.empty()),
      gamma_(problem.Gamma()) {
  used_.assign(nq_, 0);
  tau_q_delta_.assign(nq_, 0.0);
  cust_index_.assign(problem.customers.size(), -1);
  q_adj_.resize(nq_);
  for (std::size_t q = 0; q < nq_; ++q) {
    if (problem_.providers[q].capacity <= 0) ++full_count_;
  }
  if (full_count_ > 0) fast_mode_ = false;
  GrowNodeArrays();
}

void IncrementalEngine::GrowNodeArrays() {
  const std::size_t nodes = 1 + nq_ + custs_.size();
  if (alpha_.size() < nodes) {
    // Geometric growth, capped at every customer materialised: one resize
    // per doubling instead of one per customer.
    const std::size_t grown =
        std::min(std::max(nodes, 2 * alpha_.size()), 1 + nq_ + cust_index_.size());
    alpha_.resize(grown, kInf);
    prev_node_.resize(grown, -1);
    prev_edge_.resize(grown, -1);
    pop_epoch_.resize(grown, 0);
    touch_epoch_.resize(grown, 0);
    hd_.Resize(grown);
    hf_.Resize(grown);
  }
}

int IncrementalEngine::LocalCustomer(int global_id) {
  std::int32_t& slot = cust_index_[static_cast<std::size_t>(global_id)];
  if (slot >= 0) return slot;
  const int local = static_cast<int>(custs_.size());
  slot = local;
  CustState state;
  state.global_id = global_id;
  state.weight = problem_.weight(static_cast<std::size_t>(global_id));
  custs_.push_back(std::move(state));
  GrowNodeArrays();
  return local;
}

std::int64_t IncrementalEngine::EdgeCap(const EdgeRec& e) const {
  if (unit_) return 1;
  return std::min<std::int64_t>(
      problem_.providers[static_cast<std::size_t>(e.provider)].capacity,
      custs_[static_cast<std::size_t>(e.cust)].weight);
}

double IncrementalEngine::ReducedForward(const EdgeRec& e) const {
  return e.dist - TauQ(e.provider) + custs_[static_cast<std::size_t>(e.cust)].tau;
}

double IncrementalEngine::ReducedBackward(const EdgeRec& e) const {
  return -e.dist - custs_[static_cast<std::size_t>(e.cust)].tau + TauQ(e.provider);
}

void IncrementalEngine::RecomputeMinFwd(CustState* cust) {
  cust->min_fwd = kInf;
  for (std::int32_t eid : cust->edges) {
    const EdgeRec& e = edges_[static_cast<std::size_t>(eid)];
    if (e.flow < EdgeCap(e)) cust->min_fwd = std::min(cust->min_fwd, e.dist);
  }
}

int IncrementalEngine::InsertEdge(int provider, int customer, double dist) {
  const int local = LocalCustomer(customer);
  const int eid = static_cast<int>(edges_.size());
  edges_.push_back(EdgeRec{static_cast<std::int32_t>(provider),
                           static_cast<std::int32_t>(local), dist, 0});
  q_adj_[static_cast<std::size_t>(provider)].push_back(eid);
  CustState& cust = custs_[static_cast<std::size_t>(local)];
  cust.edges.push_back(eid);
  cust.min_fwd = std::min(cust.min_fwd, dist);
  ++metrics_->edges_inserted;
  if (run_live_) RepairAfterInsert(eid);
  return eid;
}

// --- Theorem-2 fast path -------------------------------------------------------

std::int64_t IncrementalEngine::FastAssign(int edge_id) {
  assert(fast_mode_ && full_count_ == 0);
  EdgeRec& e = edges_[static_cast<std::size_t>(edge_id)];
  CustState& cust = custs_[static_cast<std::size_t>(e.cust)];
  const std::int64_t residual = cust.weight - cust.sink_flow;
  if (residual <= 0) return 0;

  const auto q = static_cast<std::size_t>(e.provider);
  std::int64_t push = std::min<std::int64_t>(problem_.providers[q].capacity - used_[q], residual);
  if (unit_) push = std::min<std::int64_t>(push, 1);
  push = std::min(push, gamma_ - assigned_);
  assert(push > 0);

  // The popped edge is the globally shortest pending one, so its length is
  // the real cost of the shortest augmenting path (Theorem 2). Potentials
  // of all providers jump to that value; customer potentials stay lazy.
  assert(e.dist >= last_d_ - 1e-9);
  last_d_ = std::max(last_d_, e.dist);
  tau_q_offset_ = last_d_;
  tau_max_ = std::max(tau_max_, last_d_);

  e.flow += push;
  used_[q] += push;
  cust.sink_flow += push;
  assigned_ += push;
  ++metrics_->fast_path_assigns;
  ++metrics_->augmentations;

  if (unit_) RecomputeMinFwd(&cust);
  if (used_[q] >= problem_.providers[q].capacity) {
    ++full_count_;
    EnsureGeneralMode();
  }
  return push;
}

void IncrementalEngine::EnsureGeneralMode() {
  if (!fast_mode_) return;
  // Materialise the closed-form lazy customer potentials (DESIGN.md 3.3):
  // tau(p) = max(0, last_d - min forward-residual edge length). Unsaturated
  // customers always evaluate to 0 by construction.
  for (CustState& cust : custs_) {
    cust.tau = std::max(0.0, last_d_ - cust.min_fwd);
  }
  fast_mode_ = false;
}

// --- Dijkstra -------------------------------------------------------------------

void IncrementalEngine::RelaxInto(int node, double cand, int from_node, int via_edge) {
  if (node == SinkNode()) {
    if (cand < sink_alpha_) {
      sink_alpha_ = cand;
      sink_prev_cust_ = from_node;
    }
    return;
  }
  const auto n = static_cast<std::size_t>(node);
  if (touch_epoch_[n] != epoch_) {
    touch_epoch_[n] = epoch_;
    alpha_[n] = kInf;
    prev_node_[n] = -1;
    prev_edge_[n] = -1;
  }
  if (cand < alpha_[n]) {
    alpha_[n] = cand;
    prev_node_[n] = from_node;
    prev_edge_[n] = via_edge;
    if (repair_mode_ && !hd_.Contains(node)) {
      hf_.PushOrDecrease(node, cand);
    } else {
      hd_.PushOrDecrease(node, cand);
    }
  }
}

void IncrementalEngine::ExpandNode(int node) {
  const auto n = static_cast<std::size_t>(node);
  if (pop_epoch_[n] != epoch_) {
    pop_epoch_[n] = epoch_;
    touched_.push_back(node);
  }
  ++metrics_->dijkstra_pops;
  const double base = alpha_[n];
  if (IsProviderNode(node)) {
    const int q = ProviderOf(node);
    const double tau_q = TauQ(q);
    for (std::int32_t eid : q_adj_[static_cast<std::size_t>(q)]) {
      const EdgeRec& e = edges_[static_cast<std::size_t>(eid)];
      if (e.flow >= EdgeCap(e)) continue;
      ++metrics_->dijkstra_relaxes;
      const double w =
          std::max(0.0, e.dist - tau_q + custs_[static_cast<std::size_t>(e.cust)].tau);
      RelaxInto(CustomerNode(e.cust), base + w, node, eid);
    }
  } else {
    const int c = CustomerOf(node);
    const CustState& cust = custs_[static_cast<std::size_t>(c)];
    if (cust.sink_flow < cust.weight) {
      ++metrics_->dijkstra_relaxes;
      RelaxInto(SinkNode(), base + std::max(0.0, -cust.tau), node, -1);
    }
    for (std::int32_t eid : cust.edges) {
      const EdgeRec& e = edges_[static_cast<std::size_t>(eid)];
      if (e.flow <= 0) continue;
      ++metrics_->dijkstra_relaxes;
      const double w = std::max(0.0, ReducedBackward(e));
      RelaxInto(ProviderNode(e.provider), base + w, node, eid);
    }
  }
}

void IncrementalEngine::StartFreshRun() {
  ++epoch_;
  hd_.Clear();
  hf_.Clear();
  touched_.clear();
  sink_alpha_ = kInf;
  sink_prev_cust_ = -1;
  for (std::size_t q = 0; q < nq_; ++q) {
    if (used_[q] >= problem_.providers[q].capacity) continue;
    const int node = ProviderNode(static_cast<int>(q));
    const auto n = static_cast<std::size_t>(node);
    touch_epoch_[n] = epoch_;
    alpha_[n] = TauQ(static_cast<int>(q));
    prev_node_[n] = -1;  // fed by the source
    prev_edge_[n] = -1;
    hd_.PushOrDecrease(node, alpha_[n]);
  }
  run_live_ = true;
  ++metrics_->dijkstra_runs;
}

void IncrementalEngine::RunMainLoop() {
  while (!hd_.empty() && hd_.Min().second < sink_alpha_) {
    const auto [node, key] = hd_.PopMin();
    (void)key;
    ExpandNode(node);
  }
}

void IncrementalEngine::RepairAfterInsert(int edge_id) {
  const EdgeRec& e = edges_[static_cast<std::size_t>(edge_id)];
  const int qnode = ProviderNode(e.provider);
  const auto qn = static_cast<std::size_t>(qnode);
  if (touch_epoch_[qn] != epoch_) return;  // provider unreached; nothing to repair
  ++metrics_->dijkstra_resumes;
  repair_mode_ = true;
  if (e.flow < EdgeCap(e)) {
    const double w = std::max(0.0, ReducedForward(e));
    RelaxInto(CustomerNode(e.cust), alpha_[qn] + w, qnode, edge_id);
  }
  while (!hf_.empty()) {
    const auto [node, key] = hf_.PopMin();
    if (key >= sink_alpha_) continue;  // cannot contribute a better path
    ExpandNode(node);
  }
  repair_mode_ = false;
  // The caller re-enters RunMainLoop via ComputeShortestPath to settle any
  // frontier entries the cascade improved.
}

double IncrementalEngine::ComputeShortestPath() {
  EnsureGeneralMode();
  if (!run_live_) StartFreshRun();
  RunMainLoop();
  return sink_alpha_;
}

void IncrementalEngine::AcceptPath() {
  assert(run_live_ && sink_alpha_ < kInf && sink_prev_cust_ >= 0);
  const double d = sink_alpha_;

  // Bottleneck pass.
  std::int64_t push = gamma_ - assigned_;
  {
    const int last_cust = CustomerOf(sink_prev_cust_);
    const CustState& cust = custs_[static_cast<std::size_t>(last_cust)];
    push = std::min(push, cust.weight - cust.sink_flow);
  }
  int cur = sink_prev_cust_;
  while (prev_node_[static_cast<std::size_t>(cur)] != -1) {
    const int eid = prev_edge_[static_cast<std::size_t>(cur)];
    const EdgeRec& e = edges_[static_cast<std::size_t>(eid)];
    if (IsProviderNode(cur)) {
      push = std::min(push, e.flow);  // traversing the reversed edge
    } else {
      push = std::min(push, EdgeCap(e) - e.flow);
    }
    cur = prev_node_[static_cast<std::size_t>(cur)];
  }
  assert(IsProviderNode(cur));
  const auto first_q = static_cast<std::size_t>(ProviderOf(cur));
  push = std::min(push, problem_.providers[first_q].capacity - used_[first_q]);
  assert(push > 0);

  // Apply pass.
  {
    CustState& cust = custs_[static_cast<std::size_t>(CustomerOf(sink_prev_cust_))];
    cust.sink_flow += push;
  }
  cur = sink_prev_cust_;
  while (prev_node_[static_cast<std::size_t>(cur)] != -1) {
    const int eid = prev_edge_[static_cast<std::size_t>(cur)];
    EdgeRec& e = edges_[static_cast<std::size_t>(eid)];
    if (IsProviderNode(cur)) {
      e.flow -= push;
      assert(e.flow >= 0);
    } else {
      e.flow += push;
    }
    cur = prev_node_[static_cast<std::size_t>(cur)];
  }
  used_[first_q] += push;
  if (used_[first_q] >= problem_.providers[first_q].capacity) ++full_count_;
  assigned_ += push;
  ++metrics_->augmentations;

  // Potential update: every node de-heaped with a final distance below the
  // accepted path cost moves up to it (paper Algorithm 1 lines 8-9).
  for (int node : touched_) {
    const auto n = static_cast<std::size_t>(node);
    const double delta = d - alpha_[n];
    if (delta <= 0.0) continue;
    if (IsProviderNode(node)) {
      const auto q = static_cast<std::size_t>(ProviderOf(node));
      tau_q_delta_[q] += delta;
      tau_max_ = std::max(tau_max_, TauQ(static_cast<int>(q)));
    } else {
      custs_[static_cast<std::size_t>(CustomerOf(node))].tau += delta;
    }
  }
  last_d_ = std::max(last_d_, d);
  run_live_ = false;
}

// --- bounds -----------------------------------------------------------------------

bool IncrementalEngine::IsProviderFull(int provider) const {
  const auto q = static_cast<std::size_t>(provider);
  return used_[q] >= problem_.providers[q].capacity;
}

std::int64_t IncrementalEngine::CustomerResidual(int customer) const {
  const std::int32_t local = cust_index_[static_cast<std::size_t>(customer)];
  if (local < 0) return problem_.weight(static_cast<std::size_t>(customer));
  const CustState& cust = custs_[static_cast<std::size_t>(local)];
  return cust.weight - cust.sink_flow;
}

double IncrementalEngine::ProviderBound(int provider) const {
  if (!IsProviderFull(provider)) return 0.0;
  const int node = ProviderNode(provider);
  const auto n = static_cast<std::size_t>(node);
  const double tau = TauQ(provider);
  // De-heaped in the latest run: alpha is the exact distance there, and
  // real distances only grow across augmentations.
  if (epoch_ > 0 && pop_epoch_[n] == epoch_) return std::max(0.0, alpha_[n] - tau);
  if (run_live_) {
    // Not de-heaped at quiescence: its distance is at least the sink's.
    if (sink_alpha_ == kInf) return kInf;
    return std::max(0.0, sink_alpha_ - tau);
  }
  // Between runs: the last accepted path cost lower-bounds every
  // unvisited node's distance, and distances are monotone.
  return std::max(0.0, last_d_ - tau);
}

// --- results ----------------------------------------------------------------------

Matching IncrementalEngine::BuildMatching() const {
  Matching matching;
  for (const EdgeRec& e : edges_) {
    if (e.flow > 0) {
      matching.Add(e.provider, custs_[static_cast<std::size_t>(e.cust)].global_id,
                   static_cast<std::int32_t>(e.flow), e.dist);
    }
  }
  return matching;
}

double IncrementalEngine::DebugCustomerTau(int customer) const {
  const std::int32_t local = cust_index_[static_cast<std::size_t>(customer)];
  if (local < 0) return 0.0;
  const CustState& cust = custs_[static_cast<std::size_t>(local)];
  return fast_mode_ ? std::max(0.0, last_d_ - cust.min_fwd) : cust.tau;
}

bool IncrementalEngine::CheckReducedCosts(std::string* error) const {
  constexpr double kEps = 1e-6;
  auto eff_tau_p = [&](const CustState& cust) {
    return fast_mode_ ? std::max(0.0, last_d_ - cust.min_fwd) : cust.tau;
  };
  for (const EdgeRec& e : edges_) {
    const CustState& cust = custs_[static_cast<std::size_t>(e.cust)];
    const double tp = eff_tau_p(cust);
    if (e.flow < EdgeCap(e)) {
      if (e.dist - TauQ(e.provider) + tp < -kEps) {
        if (error != nullptr) *error = "negative reduced cost on forward edge";
        return false;
      }
    }
    if (e.flow > 0) {
      if (-e.dist - tp + TauQ(e.provider) < -kEps) {
        if (error != nullptr) *error = "negative reduced cost on residual edge";
        return false;
      }
    }
  }
  for (const CustState& cust : custs_) {
    if (cust.sink_flow < cust.weight && eff_tau_p(cust) > kEps) {
      if (error != nullptr) *error = "unsaturated customer with positive potential";
      return false;
    }
    if (cust.sink_flow > cust.weight) {
      if (error != nullptr) *error = "customer over-assigned";
      return false;
    }
  }
  for (std::size_t q = 0; q < nq_; ++q) {
    if (TauQ(static_cast<int>(q)) < -kEps) {
      if (error != nullptr) *error = "negative provider potential";
      return false;
    }
    if (used_[q] > problem_.providers[q].capacity) {
      if (error != nullptr) *error = "provider over capacity";
      return false;
    }
  }
  return true;
}

}  // namespace cca
