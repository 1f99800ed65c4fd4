// Deterministic fault-injection chaos suite: the storage stack (PageFile
// CRC32 + BufferPool retry) and the R-tree-backed solver stack above it
// are exercised under seeded injected read failures and torn-page
// corruption, against a fault-free twin running the identical workload.
//
// The contract under test (src/runtime/README.md "Failure model"):
//   * every injected fault is recovered by the bounded retry loop — the
//     backing store stays intact, and the injector's consecutive-fault cap
//     (FaultInjectorConfig::max_consecutive_faults) is below the retry
//     budget (BufferPool::kMaxReadRetries), so recovery is guaranteed, not
//     probabilistic;
//   * recovery is *exact*: query results and matching costs are
//     bit-identical to the fault-free twin, not merely close;
//   * every fault is accounted for: the BufferPool's retry counters
//     reconcile exactly with the injector's own ledger — no fault is
//     silently swallowed, none is double-counted.
//
// The chaos seed is pinned here AND in the ctest registration name
// (test_fault_chaos_seed1337 in CMakeLists.txt): a red CI run names the
// exact injected fault sequence, reproducible with no bisection.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/customer_db.h"
#include "core/exact.h"
#include "core/problem.h"
#include "flow/sspa.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injector.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace cca {
namespace {

constexpr std::uint64_t kChaosSeed = 1337;
// Injected per-read probabilities. The acceptance floor is 1e-3; these sit
// well above it so even the smaller workloads see faults of both kinds.
constexpr double kReadFailureRate = 0.02;
constexpr double kCorruptionRate = 0.02;

FaultInjectorConfig ChaosConfig(std::uint64_t seed_salt) {
  FaultInjectorConfig config;
  config.read_failure_rate = kReadFailureRate;
  config.corruption_rate = kCorruptionRate;
  config.seed = kChaosSeed + seed_salt;
  return config;
}

// The retry budget must dominate the injector's consecutive-fault cap or
// recovery would be probabilistic instead of guaranteed.
static_assert(FaultInjectorConfig{}.max_consecutive_faults < BufferPool::kMaxReadRetries,
              "retry budget must exceed the injector's consecutive-fault cap");

TEST(FaultChaos, StorageChurnRecoversEveryFaultAndReconcilesLedger) {
  constexpr std::uint32_t kPageSize = 256;
  constexpr std::uint32_t kPages = 64;
  PageFile file(kPageSize);
  BufferPool pool(&file, /*capacity=*/8);
  FaultInjector injector(ChaosConfig(1));
  file.set_fault_injector(&injector);

  // Fill every page with a seeded pattern through the pool.
  std::vector<std::vector<std::uint8_t>> expected(kPages);
  Rng rng(kChaosSeed);
  for (std::uint32_t id = 0; id < kPages; ++id) {
    ASSERT_EQ(file.Allocate(), id);
    expected[id].resize(kPageSize);
    for (auto& b : expected[id]) b = static_cast<std::uint8_t>(rng.Next());
    ASSERT_TRUE(pool.WritePage(id, expected[id].data()).ok());
  }

  // Random read churn: every read must come back byte-identical to what
  // was written, whatever the injector did underneath.
  std::vector<std::uint8_t> buf(kPageSize);
  for (int i = 0; i < 4000; ++i) {
    const auto id = static_cast<PageId>(rng.NextBelow(kPages));
    ASSERT_TRUE(pool.ReadPage(id, buf.data()).ok()) << "read " << i;
    ASSERT_EQ(std::memcmp(buf.data(), expected[id].data(), kPageSize), 0)
        << "page " << id << " read " << i;
  }

  // The chaos was real, and every fault is accounted: pool counters
  // reconcile exactly with the injector's own ledger.
  const BufferPool::Stats stats = pool.stats();
  const FaultInjector::Ledger& ledger = injector.ledger();
  EXPECT_GT(ledger.read_failures, 0u);
  EXPECT_GT(ledger.corruptions, 0u);
  EXPECT_EQ(stats.read_failures, ledger.read_failures);
  EXPECT_EQ(stats.checksum_failures, ledger.corruptions);
  EXPECT_EQ(stats.read_retries, ledger.read_failures + ledger.corruptions);
}

TEST(FaultChaos, RtreeSolveCostsBitIdenticalToFaultFreeTwin) {
  // Two identical R-tree-backed customer databases run the same solver
  // workload; one has the chaos injector attached to its page file. A
  // small buffer fraction keeps real page traffic (and therefore
  // injection opportunities) high. Costs and ledgers must come out
  // bit-identical — recovery, not approximation.
  test::InstanceSpec spec;
  spec.nq = 12;
  spec.np = 600;
  spec.seed = kChaosSeed + 2;
  const Problem problem = test::RandomProblem(spec);

  CustomerDb::Options options;
  options.rtree.page_size = 512;
  options.buffer_fraction = 0.05;  // tiny cache -> constant page traffic
  CustomerDb faulty(problem.customers, options);
  CustomerDb clean(problem.customers, options);

  FaultInjector injector(ChaosConfig(3));
  faulty.tree()->buffer().file()->set_fault_injector(&injector);

  ExactConfig config;
  config.discovery_backend = DiscoveryBackend::kRTreeGrouped;
  const ExactResult with_faults = SolveRia(problem, &faulty, config);
  const ExactResult without = SolveRia(problem, &clean, config);
  // Bit-identical, not NEAR: retry returns the exact stored bytes, so the
  // two solver trajectories are the same program on the same data.
  EXPECT_EQ(with_faults.matching.cost(), without.matching.cost());
  EXPECT_EQ(with_faults.matching.pairs.size(), without.matching.pairs.size());

  const FaultInjector::Ledger& ledger = injector.ledger();
  EXPECT_GT(ledger.reads_seen, 0u);
  EXPECT_GT(ledger.read_failures + ledger.corruptions, 0u);
  const BufferPool::Stats stats = faulty.tree()->buffer().stats();
  EXPECT_EQ(stats.read_failures, ledger.read_failures);
  EXPECT_EQ(stats.checksum_failures, ledger.corruptions);
  // The clean twin saw no retries at all.
  const BufferPool::Stats clean_stats = clean.tree()->buffer().stats();
  EXPECT_EQ(clean_stats.read_retries, 0u);
  EXPECT_EQ(clean_stats.read_failures, 0u);
  EXPECT_EQ(clean_stats.checksum_failures, 0u);
}

TEST(FaultChaos, SolverMatchingsSurviveSustainedFaultsAcrossSeeds) {
  // Several chaos seeds over a smaller instance: the recovery contract is
  // seed-independent (any fault sequence the cap allows is survivable).
  for (std::uint64_t salt = 10; salt < 13; ++salt) {
    test::InstanceSpec spec;
    spec.nq = 6;
    spec.np = 200;
    spec.seed = kChaosSeed + salt;
    const Problem problem = test::RandomProblem(spec);
    CustomerDb::Options options;
    options.rtree.page_size = 512;
    options.buffer_fraction = 0.05;
    CustomerDb faulty(problem.customers, options);
    CustomerDb clean(problem.customers, options);
    FaultInjector injector(ChaosConfig(salt));
    faulty.tree()->buffer().file()->set_fault_injector(&injector);

    const ExactResult with_faults = SolveNia(problem, &faulty);
    const ExactResult without = SolveNia(problem, &clean);
    EXPECT_EQ(with_faults.matching.cost(), without.matching.cost()) << "salt " << salt;

    const FaultInjector::Ledger& ledger = injector.ledger();
    const BufferPool::Stats stats = faulty.tree()->buffer().stats();
    EXPECT_EQ(stats.read_failures, ledger.read_failures) << "salt " << salt;
    EXPECT_EQ(stats.checksum_failures, ledger.corruptions) << "salt " << salt;
  }
}

}  // namespace
}  // namespace cca
