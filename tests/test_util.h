// Shared helpers for the CCA test suites: deterministic random instance
// builders and solver comparison utilities.
#ifndef CCA_TESTS_TEST_UTIL_H_
#define CCA_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/customer_db.h"
#include "core/matching.h"
#include "core/problem.h"
#include "flow/oracle.h"
#include "flow/sspa.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace cca::test {

inline Rect UnitWorld() { return Rect{{0.0, 0.0}, {1000.0, 1000.0}}; }

// Uniform random points in the [0,1000]^2 world.
inline std::vector<Point> RandomPoints(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
  }
  return pts;
}

// Clustered points: `clusters` Gaussian blobs plus 20% uniform noise.
inline std::vector<Point> ClusteredPoints(std::size_t n, std::uint64_t seed, int clusters = 5,
                                          double sigma = 40.0) {
  Rng rng(seed);
  std::vector<Point> centres;
  for (int c = 0; c < clusters; ++c) {
    centres.push_back(Point{rng.Uniform(100.0, 900.0), rng.Uniform(100.0, 900.0)});
  }
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.2) {
      pts.push_back(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
    } else {
      const auto& c = centres[static_cast<std::size_t>(rng.NextBelow(centres.size()))];
      const double x = std::min(1000.0, std::max(0.0, c.x + rng.NextGaussian() * sigma));
      const double y = std::min(1000.0, std::max(0.0, c.y + rng.NextGaussian() * sigma));
      pts.push_back(Point{x, y});
    }
  }
  return pts;
}

// Skewed points: 90% of the mass packed into a small hot rectangle at the
// origin, the rest uniform across the world (exercises the hierarchical
// grid's per-region splits and non-uniform cell occupancy).
inline std::vector<Point> SkewedPoints(std::size_t n, std::uint64_t seed, double hot_w = 80.0,
                                       double hot_h = 50.0) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.9) {
      pts.push_back(Point{rng.Uniform(0.0, hot_w), rng.Uniform(0.0, hot_h)});
    } else {
      pts.push_back(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
    }
  }
  return pts;
}

struct InstanceSpec {
  std::size_t nq = 4;
  std::size_t np = 30;
  std::int32_t k_lo = 2;      // capacities drawn uniformly from [k_lo, k_hi]
  std::int32_t k_hi = 6;
  bool clustered_q = false;
  bool clustered_p = false;
  std::uint64_t seed = 1;
};

// Builds a random CCA instance per `spec` (unit customer weights).
inline Problem RandomProblem(const InstanceSpec& spec) {
  Problem problem;
  const auto q_pts = spec.clustered_q ? ClusteredPoints(spec.nq, spec.seed * 7 + 1)
                                      : RandomPoints(spec.nq, spec.seed * 7 + 1);
  const auto p_pts = spec.clustered_p ? ClusteredPoints(spec.np, spec.seed * 13 + 2)
                                      : RandomPoints(spec.np, spec.seed * 13 + 2);
  Rng rng(spec.seed * 31 + 3);
  problem.providers.reserve(spec.nq);
  for (const auto& pos : q_pts) {
    problem.providers.push_back(
        Provider{pos, static_cast<std::int32_t>(rng.UniformInt(spec.k_lo, spec.k_hi))});
  }
  problem.customers = p_pts;
  return problem;
}

// The Hungarian baseline requires unit customer weights; a weighted
// customer of weight w is exactly w co-located unit customers (each unit
// of demand may be served by a different provider), so the expansion
// preserves the optimal cost.
inline Problem UnitExpanded(const Problem& problem) {
  if (problem.weights.empty()) return problem;
  Problem expanded;
  expanded.providers = problem.providers;
  for (std::size_t p = 0; p < problem.customers.size(); ++p) {
    for (std::int32_t u = 0; u < problem.weights[p]; ++u) {
      expanded.customers.push_back(problem.customers[p]);
    }
  }
  return expanded;
}

// Builds an in-memory CustomerDb (small pages to force realistic fanout
// even for small instances).
inline std::unique_ptr<CustomerDb> MakeDb(const Problem& problem, double buffer_fraction = 1.5,
                                          std::uint32_t page_size = 512) {
  CustomerDb::Options options;
  options.rtree.page_size = page_size;
  options.buffer_fraction = buffer_fraction;
  return std::make_unique<CustomerDb>(problem.customers, options);
}

// The LP-duality certificate (flow/oracle.h): `potentials` prove
// `matching` optimal. A failure names the condition that broke.
inline void ExpectCertified(const Problem& problem, const Matching& matching,
                            const SspaPotentials& potentials, const std::string& label = "") {
  const Status cert = CertifyOptimal(problem, matching, potentials);
  EXPECT_TRUE(cert.ok()) << label << ": " << cert.message();
}

// A completed SSPA solve certifies itself with its own exported duals.
inline void ExpectCertified(const Problem& problem, const SspaResult& result,
                            const std::string& label = "") {
  ExpectCertified(problem, result.matching, result.potentials, label);
}

}  // namespace cca::test

#endif  // CCA_TESTS_TEST_UTIL_H_
