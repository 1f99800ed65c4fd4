// Observability-layer tests: the log-scale latency Histogram
// (src/common/histogram.h), the AssignmentEngine stats surface
// (src/runtime/engine.h), and — in tracing-enabled builds — the span
// tracer itself (src/common/trace.h): nesting order, args, and the
// thread-local buffer drain at QueryRunner batch joins (the TSan CI job
// builds this suite with tracing ON, certifying the layer race-free).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/trace.h"
#include "runtime/engine.h"
#include "runtime/query_runner.h"
#include "test_util.h"

namespace cca {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

// The sorted-vector reference the benches used before the histogram: value
// at rank floor(p * (n - 1)).
double ReferencePercentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

TEST(HistogramTest, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, BucketSchemeInvariants) {
  // Every positive finite value lands in a bucket whose upper edge is at
  // least the value and within 12.5% of it (the <= 1/kSubBuckets relative
  // width contract the percentile accuracy rests on).
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform across the histogram's covered range.
    const double exponent = -18.0 + 46.0 * rng.NextDouble();
    const double v = std::pow(2.0, exponent) * (1.0 + rng.NextDouble());
    const std::size_t b = Histogram::BucketIndex(v);
    ASSERT_LT(b, Histogram::kNumBuckets);
    const double hi = Histogram::BucketUpperEdge(b);
    EXPECT_GE(hi, v * (1.0 - 1e-12));
    EXPECT_LE(hi, v * (1.0 + 1.0 / Histogram::kSubBuckets + 1e-12));
  }
  // Bucket index is monotone in the value: edges sort.
  double prev_edge = 0.0;
  for (std::size_t b = 1; b + 1 < Histogram::kNumBuckets; ++b) {
    const double edge = Histogram::BucketUpperEdge(b);
    EXPECT_GT(edge, prev_edge) << "bucket " << b;
    prev_edge = edge;
  }
  // Out-of-range and degenerate values clamp instead of indexing out.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-3.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, PercentileWithinOneBucketOfSortedReference) {
  // The acceptance contract: any percentile from the histogram is within
  // one bucket (<= 12.5% relative) of the exact sorted-vector answer, and
  // never below it (the histogram reports the rank bucket's upper edge).
  Rng rng(99);
  std::vector<double> samples;
  Histogram h;
  for (int i = 0; i < 5000; ++i) {
    // Heavy-ish tail, like real resolve latencies: exp of a uniform.
    const double v = 0.05 * std::exp(4.0 * rng.NextDouble());
    samples.push_back(v);
    h.Record(v);
  }
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double ref = ReferencePercentile(samples, p);
    const double got = h.Percentile(p);
    EXPECT_GE(got, ref * (1.0 - 1e-12)) << "p=" << p;
    EXPECT_LE(got, ref * (1.0 + 1.0 / Histogram::kSubBuckets + 1e-12)) << "p=" << p;
  }
  // Extremes are exact (tracked on the side, and percentiles clamp to them).
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), *std::min_element(samples.begin(), samples.end()));
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), *std::max_element(samples.begin(), samples.end()));
}

TEST(HistogramTest, SingleValueIsExactEverywhere) {
  Histogram h;
  h.Record(3.25);
  for (const double p : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 3.25) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(h.Mean(), 3.25);
  EXPECT_DOUBLE_EQ(h.Min(), 3.25);
  EXPECT_DOUBLE_EQ(h.Max(), 3.25);
}

TEST(HistogramTest, MergeMatchesRecordingEverythingInOne) {
  Rng rng(7);
  Histogram a, b, merged_ref;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble() * 10.0;
    (i % 2 == 0 ? a : b).Record(v);
    merged_ref.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), merged_ref.Count());
  EXPECT_DOUBLE_EQ(a.Sum(), merged_ref.Sum());
  EXPECT_DOUBLE_EQ(a.Min(), merged_ref.Min());
  EXPECT_DOUBLE_EQ(a.Max(), merged_ref.Max());
  for (const double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), merged_ref.Percentile(p)) << "p=" << p;
  }
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(1.0);
  h.Record(2.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

// ---------------------------------------------------------------------------
// AssignmentEngine::Stats
// ---------------------------------------------------------------------------

TEST(EngineStatsTest, SnapshotTracksChurnAndResolves) {
  AssignmentEngine engine;
  EXPECT_EQ(engine.stats().resolves, 0u);

  const std::vector<Point> providers = test::RandomPoints(4, 21);
  const std::vector<Point> customers = test::RandomPoints(30, 22);
  std::vector<AssignmentEngine::Id> customer_ids;
  for (const Point& pos : providers) ASSERT_TRUE(engine.InsertProvider(pos, 10).ok());
  for (const Point& pos : customers) customer_ids.push_back(engine.InsertCustomer(pos).value());

  AssignmentEngine::Stats s = engine.stats();
  EXPECT_EQ(s.providers_inserted, 4u);
  EXPECT_EQ(s.customers_inserted, 30u);
  EXPECT_EQ(s.customers_removed, 0u);

  // First resolve is cold (nothing to warm from); units == all customers
  // (ample capacity, unit weights).
  Metrics expected_totals;
  const auto first = engine.Resolve();
  expected_totals.Merge(first.metrics);
  s = engine.stats();
  EXPECT_EQ(s.resolves, 1u);
  EXPECT_EQ(s.warm_resolves, 0u);
  EXPECT_EQ(s.units_matched, 30u);
  EXPECT_EQ(s.resolve_latency_ms.Count(), 1u);

  // Churn + two warm resolves: every counter keeps accumulating, the
  // totals ledger matches the per-outcome metrics exactly, and the
  // adoption ratio stays a valid fraction.
  for (int round = 0; round < 2; ++round) {
    engine.RemoveCustomer(customer_ids.back());
    customer_ids.pop_back();
    customer_ids.push_back(
        engine.InsertCustomer(test::RandomPoints(1, 100 + static_cast<std::uint64_t>(round))[0])
            .value());
    const auto out = engine.Resolve();
    EXPECT_TRUE(out.warm);
    expected_totals.Merge(out.metrics);
  }
  s = engine.stats();
  EXPECT_EQ(s.resolves, 3u);
  EXPECT_EQ(s.warm_resolves, 2u);
  EXPECT_EQ(s.customers_inserted, 32u);
  EXPECT_EQ(s.customers_removed, 2u);
  EXPECT_EQ(s.providers_removed, 0u);
  EXPECT_EQ(s.units_matched, 90u);  // 30 per resolve, 3 resolves
  EXPECT_EQ(s.resolve_latency_ms.Count(), 3u);
  EXPECT_GT(s.resolve_latency_ms.Max(), 0.0);
  EXPECT_EQ(s.totals.dijkstra_pops, expected_totals.dijkstra_pops);
  EXPECT_EQ(s.totals.augmentations, expected_totals.augmentations);
  EXPECT_EQ(s.totals.warm_units_adopted, expected_totals.warm_units_adopted);
  EXPECT_EQ(s.warm_units_adopted, expected_totals.warm_units_adopted);
  EXPECT_GE(s.warm_adoption_ratio(), 0.0);
  EXPECT_LE(s.warm_adoption_ratio(), 1.0);
  // Warm starts on small churn must actually adopt: most of the 60 units
  // matched by the two warm resolves were carried over, not re-augmented.
  EXPECT_GT(s.warm_units_adopted, 40u);

  // A snapshot is a copy: mutating the engine afterwards must not change it.
  const AssignmentEngine::Stats frozen = engine.stats();
  ASSERT_TRUE(engine.InsertCustomer(Point{1.0, 2.0}).ok());
  EXPECT_EQ(frozen.customers_inserted, 32u);
  EXPECT_EQ(engine.stats().customers_inserted, 33u);
}

TEST(EngineStatsTest, ToJsonCarriesTheHeadlineFields) {
  AssignmentEngine engine;
  for (const Point& pos : test::RandomPoints(3, 31)) ASSERT_TRUE(engine.InsertProvider(pos, 8).ok());
  for (const Point& pos : test::RandomPoints(12, 32)) ASSERT_TRUE(engine.InsertCustomer(pos).ok());
  engine.Resolve();
  engine.Resolve();
  const std::string json = engine.stats().ToJson();
  EXPECT_EQ(json.rfind("{\"schema_version\": 1, ", 0), 0u) << json;
  for (const char* key :
       {"\"resolves\": 2", "\"warm_resolves\": 1", "\"customers_inserted\": 12",
        "\"providers_inserted\": 3", "\"units_matched\": 24", "\"warm_adoption_ratio\"",
        "\"dijkstra_pops\"", "\"resolve_ms\"", "\"p50\"", "\"p99\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing from " << json;
  }
}

// ---------------------------------------------------------------------------
// Span tracer (only in tracing-enabled builds: the default build compiles
// the macros to nothing, which is itself covered by the bench A/B in CI)
// ---------------------------------------------------------------------------
#if CCA_TRACING_ENABLED

TEST(TraceTest, SpansNestAndCarryArgs) {
  trace::Drain();  // discard anything earlier tests recorded
  trace::Start();
  {
    CCA_TRACE_SPAN_VAR(outer, "test.outer");
    outer.Arg("round", 7);
    { CCA_TRACE_SPAN("test.inner"); }
    { CCA_TRACE_SPAN("test.inner"); }
  }
  trace::Stop();
  const std::vector<trace::Event> events = trace::Drain();
  ASSERT_EQ(events.size(), 3u);

  // RAII close order: the two inners complete before the outer.
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_STREQ(events[2].name, "test.outer");
  const trace::Event& outer = events[2];
  EXPECT_EQ(outer.depth, 0u);
  ASSERT_EQ(outer.num_args, 1u);
  EXPECT_STREQ(outer.args[0].key, "round");
  EXPECT_EQ(outer.args[0].value, 7u);
  for (int i = 0; i < 2; ++i) {
    const trace::Event& inner = events[static_cast<std::size_t>(i)];
    EXPECT_EQ(inner.depth, 1u);  // lexically inside the outer span
    EXPECT_EQ(inner.tid, outer.tid);
    // Time containment: inner spans start and end within the outer span.
    EXPECT_GE(inner.start_ns, outer.start_ns);
    EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  }
  // The second inner starts at or after the first ended (sequential scopes).
  EXPECT_GE(events[1].start_ns, events[0].start_ns + events[0].dur_ns);
}

TEST(TraceTest, StoppedTracerRecordsNothing) {
  trace::Drain();
  {
    CCA_TRACE_SPAN_VAR(span, "test.ignored");
    span.Arg("k", 1);
  }
  EXPECT_TRUE(trace::Drain().empty());
}

// Worker threads in a QueryRunner pool outlive the batch; the batch-join
// flush must make their spans visible immediately after Run() returns —
// while the pool is still alive. This is also the TSan certification of
// the thread-local-buffer design: 8 workers recording concurrently, main
// thread draining at the join.
TEST(TraceTest, QueryRunnerBatchJoinDrainsWorkerBuffers) {
  const std::vector<Point> customers = test::RandomPoints(64, 5);
  std::vector<QuerySpec> batch;
  for (int i = 0; i < 32; ++i) {
    QuerySpec spec;
    spec.solver = QuerySolver::kSspa;
    spec.problem.customers = customers;
    Rng rng(static_cast<std::uint64_t>(i) + 1);
    for (const Point& pos : test::RandomPoints(4, static_cast<std::uint64_t>(i) * 3 + 11)) {
      spec.problem.providers.push_back(
          Provider{pos, static_cast<std::int32_t>(rng.UniformInt(2, 5))});
    }
    batch.push_back(std::move(spec));
  }
  SharedIndex index(customers);
  QueryRunner runner(&index, 8);

  trace::Drain();
  trace::Start();
  runner.Run(batch);
  trace::Stop();
  // Drained before the runner (and its worker threads) is destroyed: the
  // spans must already be in the sink via the batch-join flush.
  const std::vector<trace::Event> events = trace::Drain();

  std::size_t queries = 0, solves = 0;
  for (const trace::Event& e : events) {
    if (std::string_view(e.name) == "runner.query") ++queries;
    if (std::string_view(e.name) == "sspa.solve") ++solves;
  }
  EXPECT_EQ(queries, batch.size());
  EXPECT_EQ(solves, batch.size());
}

#endif  // CCA_TRACING_ENABLED

}  // namespace
}  // namespace cca
