// Independent correctness oracles for CCA solvers.
//
// Two kinds of assurance, used throughout the test suite and by Debug
// builds of the serving engine:
//  1. BruteForceOptimal: exhaustive search, tiny instances only. With the
//     Hungarian baseline (flow/hungarian.h) it is the independent solver
//     that cost comparisons run against.
//  2. CertifyOptimal: the LP-duality certificate of paper Section 2.2.
//     SSPA ends with node potentials, and potentials that satisfy the five
//     conditions below prove the matching optimal without a second solve.
//     It shares no code with the solver, so a solver bug cannot hide in it
//     (src/flow/README.md, "Certificate").
#ifndef CCA_FLOW_ORACLE_H_
#define CCA_FLOW_ORACLE_H_

#include "common/status.h"
#include "core/matching.h"
#include "core/problem.h"
#include "flow/sspa.h"

namespace cca {

// Exhaustively enumerates assignments (providers^customers); requires unit
// customer weights and a tiny instance (customers^providers manageable).
Matching BruteForceOptimal(const Problem& problem);

// Brute-force O(|Q||P|) check that `potentials` witness the optimality of
// `matching`, with reduced cost r(q, p) = dist(q, p) - tau_q + tau_p and a
// relative tolerance of 1e-7:
//   (1) primal feasibility (ValidateMatching: capacities, weights, gamma);
//   (2) r >= -eps on every residual forward arc (capacity 1 for unit
//       customers, min(k, w) for weighted ones);
//   (3) r <= eps on every arc that carries flow;
//   (4) source: the highest tau_q over flow-carrying providers is <= the
//       lowest tau_q over providers with spare capacity;
//   (5) sink: the highest tau_p over customers with unserved demand is <=
//       the lowest tau_p over customers with served units.
// Returns OK, or FailedPrecondition naming the first condition that fails.
// Every completed SolveSspa passes with its own SspaResult::potentials.
Status CertifyOptimal(const Problem& problem, const Matching& matching,
                      const SspaPotentials& potentials);

}  // namespace cca

#endif  // CCA_FLOW_ORACLE_H_
