#include "flow/oracle.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace cca {
namespace {

// a <= b up to the certificate's relative tolerance, which absorbs the
// float noise potential updates accumulate. False when either is NaN.
bool AtMost(double a, double b) { return a <= b + 1e-7 * std::max(1.0, std::abs(b)); }

Status Violated(const char* condition, const char* format, std::size_t i, std::size_t j, double x,
                double y) {
  char detail[160];
  std::snprintf(detail, sizeof(detail), format, i, j, x, y);
  return FailedPreconditionError(std::string(condition) + ": " + detail);
}

}  // namespace

Status CertifyOptimal(const Problem& problem, const Matching& matching,
                      const SspaPotentials& potentials) {
  std::string error;
  if (!ValidateMatching(problem, matching, &error)) {
    return FailedPreconditionError("(1) primal feasibility: " + error);
  }
  const std::size_t nq = problem.providers.size();
  const std::size_t np = problem.customers.size();
  if (potentials.tau_q.size() != nq || potentials.tau_p.size() != np) {
    return InvalidArgumentError("potentials are not sized like the problem");
  }
  const std::vector<double>& tau_q = potentials.tau_q;
  const std::vector<double>& tau_p = potentials.tau_p;
  std::vector<std::int64_t> units(nq * np, 0);
  for (const MatchPair& pair : matching.pairs) {
    units[static_cast<std::size_t>(pair.provider) * np + static_cast<std::size_t>(pair.customer)] +=
        pair.units;
  }
  const bool unit = problem.weights.empty();
  for (std::size_t q = 0; q < nq; ++q) {
    for (std::size_t p = 0; p < np; ++p) {
      const double reach = Distance(problem.providers[q].pos, problem.customers[p]) + tau_p[p];
      const std::int64_t flow = units[q * np + p];
      const std::int64_t cap =
          unit ? 1 : std::min<std::int64_t>(problem.providers[q].capacity, problem.weight(p));
      if (flow < cap && !AtMost(tau_q[q], reach)) {
        return Violated("(2) residual arc", "q=%zu p=%zu has reduced cost %g (tau_q %g)", q, p,
                        reach - tau_q[q], tau_q[q]);
      }
      if (flow > 0 && !AtMost(reach, tau_q[q])) {
        return Violated("(3) flow arc", "q=%zu p=%zu has reduced cost %g (tau_q %g)", q, p,
                        reach - tau_q[q], tau_q[q]);
      }
    }
  }
  // (4) and (5) are the threshold forms of the source and sink arcs'
  // conditions: some source (sink) potential fits between the two sets.
  const std::vector<std::int64_t> q_loads = matching.ProviderLoads(nq);
  std::size_t flow_q = nq, spare_q = nq;
  for (std::size_t q = 0; q < nq; ++q) {
    if (q_loads[q] > 0 && (flow_q == nq || tau_q[q] > tau_q[flow_q])) flow_q = q;
    if (q_loads[q] < problem.providers[q].capacity && (spare_q == nq || tau_q[q] < tau_q[spare_q])) {
      spare_q = q;
    }
  }
  if (flow_q < nq && spare_q < nq && !AtMost(tau_q[flow_q], tau_q[spare_q])) {
    return Violated("(4) source condition",
                    "flow-carrying q=%zu and spare q=%zu have tau_q %g > %g", flow_q, spare_q,
                    tau_q[flow_q], tau_q[spare_q]);
  }
  const std::vector<std::int64_t> p_loads = matching.CustomerLoads(np);
  std::size_t unserved_p = np, served_p = np;
  for (std::size_t p = 0; p < np; ++p) {
    if (p_loads[p] < problem.weight(p) && (unserved_p == np || tau_p[p] > tau_p[unserved_p])) {
      unserved_p = p;
    }
    if (p_loads[p] > 0 && (served_p == np || tau_p[p] < tau_p[served_p])) served_p = p;
  }
  if (unserved_p < np && served_p < np && !AtMost(tau_p[unserved_p], tau_p[served_p])) {
    return Violated("(5) sink condition", "unserved p=%zu and served p=%zu have tau_p %g > %g",
                    unserved_p, served_p, tau_p[unserved_p], tau_p[served_p]);
  }
  return OkStatus();
}

Matching BruteForceOptimal(const Problem& problem) {
  assert(problem.weights.empty() && "brute force supports unit weights only");
  const auto nq = problem.providers.size();
  const auto np = problem.customers.size();
  const std::int64_t gamma = problem.Gamma();

  std::vector<int> assign(np, -1);
  std::vector<int> best_assign;
  std::vector<std::int64_t> used(nq, 0);
  double best_cost = std::numeric_limits<double>::infinity();

  // Depth-first over customers; each is assigned to a provider or skipped.
  // Only assignments reaching size gamma are feasible candidates.
  auto recurse = [&](auto&& self, std::size_t j, std::int64_t assigned, double cost) -> void {
    if (cost >= best_cost) return;  // cost-only prune (distances are >= 0)
    if (j == np) {
      if (assigned == gamma && cost < best_cost) {
        best_cost = cost;
        best_assign.assign(assign.begin(), assign.end());
      }
      return;
    }
    // Even assigning every remaining customer cannot reach gamma: prune.
    if (assigned + static_cast<std::int64_t>(np - j) < gamma) return;
    for (std::size_t q = 0; q < nq; ++q) {
      if (used[q] >= problem.providers[q].capacity) continue;
      used[q] += 1;
      assign[j] = static_cast<int>(q);
      self(self, j + 1, assigned + 1,
           cost + Distance(problem.providers[q].pos, problem.customers[j]));
      used[q] -= 1;
      assign[j] = -1;
    }
    self(self, j + 1, assigned, cost);
  };
  recurse(recurse, 0, 0, 0.0);

  Matching matching;
  for (std::size_t j = 0; j < best_assign.size(); ++j) {
    if (best_assign[j] >= 0) {
      matching.Add(best_assign[j], static_cast<std::int32_t>(j), 1,
                   Distance(problem.providers[static_cast<std::size_t>(best_assign[j])].pos,
                            problem.customers[j]));
    }
  }
  return matching;
}

}  // namespace cca
