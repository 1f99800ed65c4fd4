// Metrics bundle tests.
#include <gtest/gtest.h>

#include <cstring>

#include "common/metrics.h"

namespace cca {
namespace {

// Merge completeness without naming any counter: the static_assert in
// metrics.cc pins the layout to kMetricsCounterCount uint64s followed by
// cpu_millis and the phase clocks, so a memcpy view covers every counter —
// present and future. A counter added to the struct but forgotten in Merge
// shows up here as a slot whose sum is wrong, instead of silently
// under-reporting forever.
TEST(MetricsTest, MergeCoversEveryCounterSlot) {
  Metrics a, b;
  std::uint64_t vals[kMetricsCounterCount];
  for (std::size_t i = 0; i < kMetricsCounterCount; ++i) vals[i] = i + 1;
  std::memcpy(&a, vals, sizeof(vals));
  std::memcpy(&b, vals, sizeof(vals));
  a.cpu_millis = 1.0;
  b.cpu_millis = 2.0;
  a.Merge(b);
  std::uint64_t merged[kMetricsCounterCount];
  std::memcpy(merged, &a, sizeof(merged));
  for (std::size_t i = 0; i < kMetricsCounterCount; ++i) {
    EXPECT_EQ(merged[i], 2 * (i + 1)) << "counter slot " << i << " not merged";
  }
  EXPECT_DOUBLE_EQ(a.cpu_millis, 3.0);
}

// MergeCounters adds every counter slot and leaves cpu_millis and the
// phase clocks alone: a seeded SSPA solve charges its concise levels' work
// that way, their time being inside its own seed_millis.
TEST(MetricsTest, MergeCountersLeavesClocksAlone) {
  Metrics a, b;
  std::uint64_t vals[kMetricsCounterCount];
  for (std::size_t i = 0; i < kMetricsCounterCount; ++i) vals[i] = i + 1;
  std::memcpy(&b, vals, sizeof(vals));
  b.cpu_millis = 2.0;
  b.seed_millis = 1.0;
  b.augment_millis = 0.5;
  a.cpu_millis = 3.0;
  a.MergeCounters(b);
  std::uint64_t merged[kMetricsCounterCount];
  std::memcpy(merged, &a, sizeof(merged));
  for (std::size_t i = 0; i < kMetricsCounterCount; ++i) {
    EXPECT_EQ(merged[i], i + 1) << "counter slot " << i << " not merged";
  }
  EXPECT_DOUBLE_EQ(a.cpu_millis, 3.0);
  EXPECT_DOUBLE_EQ(a.seed_millis, 0.0);
  EXPECT_DOUBLE_EQ(a.augment_millis, 0.0);
}

// The SSPA phase clocks are wall time, not counters: Merge sums them,
// ToString prints the non-zero ones, and none of them is a counter slot
// (same-seed runs must compare equal on counters alone).
TEST(MetricsTest, PhaseClocksMergeAndPrint) {
  Metrics a, b;
  a.seed_millis = 0.75;
  a.adopt_millis = 0.25;
  a.augment_millis = 1.5;
  b.seed_millis = 1.0;
  b.augment_millis = 2.0;
  b.cancel_millis = 0.125;
  b.extract_millis = 0.5;
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.seed_millis, 1.75);
  EXPECT_DOUBLE_EQ(a.adopt_millis, 0.25);
  EXPECT_DOUBLE_EQ(a.augment_millis, 3.5);
  EXPECT_DOUBLE_EQ(a.cancel_millis, 0.125);
  EXPECT_DOUBLE_EQ(a.extract_millis, 0.5);
  const std::string s = a.ToString();
  EXPECT_NE(s.find("seed=1.750ms"), std::string::npos) << s;
  EXPECT_NE(s.find("adopt=0.250ms"), std::string::npos) << s;
  EXPECT_NE(s.find("augment=3.500ms"), std::string::npos) << s;
  EXPECT_NE(s.find("cancel=0.125ms"), std::string::npos) << s;
  EXPECT_NE(s.find("extract=0.500ms"), std::string::npos) << s;
  EXPECT_EQ(Metrics{}.ToString().find("augment="), std::string::npos);
  std::uint64_t counters[kMetricsCounterCount];
  std::memcpy(counters, &a, sizeof(counters));
  for (const std::uint64_t c : counters) EXPECT_EQ(c, 0u);
}

TEST(MetricsTest, IoTimeModel) {
  Metrics m;
  EXPECT_DOUBLE_EQ(m.io_millis(), 0.0);
  m.page_faults = 7;
  EXPECT_DOUBLE_EQ(m.io_millis(), 70.0);  // 10 ms per fault (paper 5.1)
  m.cpu_millis = 12.5;
  EXPECT_DOUBLE_EQ(m.total_millis(), 82.5);
}

TEST(MetricsTest, MergeAddsEverything) {
  Metrics a, b;
  a.edges_inserted = 3;
  a.dijkstra_runs = 2;
  a.page_faults = 1;
  a.cpu_millis = 5.0;
  b.edges_inserted = 10;
  b.dijkstra_runs = 1;
  b.page_faults = 4;
  b.cpu_millis = 2.0;
  b.fast_path_assigns = 6;
  a.Merge(b);
  EXPECT_EQ(a.edges_inserted, 13u);
  EXPECT_EQ(a.dijkstra_runs, 3u);
  EXPECT_EQ(a.page_faults, 5u);
  EXPECT_EQ(a.fast_path_assigns, 6u);
  EXPECT_DOUBLE_EQ(a.cpu_millis, 7.0);
}

TEST(MetricsTest, ResetClears) {
  Metrics m;
  m.edges_inserted = 5;
  m.cpu_millis = 3.0;
  m.Reset();
  EXPECT_EQ(m.edges_inserted, 0u);
  EXPECT_DOUBLE_EQ(m.cpu_millis, 0.0);
}

TEST(MetricsTest, ToStringMentionsKeyCounters) {
  Metrics m;
  m.edges_inserted = 42;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("Esub"), std::string::npos);
}

// ToString completeness via the same memcpy view as the Merge test: every
// counter slot gets a distinct sentinel value, and every sentinel must
// appear in the printed line. Since ToString is generated from
// CCA_METRICS_COUNTER_FIELDS (like Merge and kMetricsCounterCount), this
// pins the whole table: a counter whose row was dropped would print
// nothing and fail here.
TEST(MetricsTest, ToStringCoversEveryCounterSlot) {
  Metrics m;
  std::uint64_t vals[kMetricsCounterCount];
  // Distinct, high, non-overlapping decimal patterns: 1000001, 1000002, ...
  // (small sentinels like 1/2/3 would collide as substrings of each other).
  for (std::size_t i = 0; i < kMetricsCounterCount; ++i) vals[i] = 1000001 + i;
  std::memcpy(&m, vals, sizeof(vals));
  const std::string s = m.ToString();
  for (std::size_t i = 0; i < kMetricsCounterCount; ++i) {
    EXPECT_NE(s.find(std::to_string(vals[i])), std::string::npos)
        << "counter slot " << i << " missing from ToString: " << s;
  }
  // The label=value shape holds for a known field, and every zero counter
  // stays out of the line.
  Metrics quiet;
  quiet.dijkstra_pops = 7;
  const std::string qs = quiet.ToString();
  EXPECT_NE(qs.find("dijkstra_pops=7"), std::string::npos) << qs;
  EXPECT_EQ(qs.find("Esub"), std::string::npos) << qs;
}

}  // namespace
}  // namespace cca
