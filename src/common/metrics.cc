#include "common/metrics.h"

#include <cstdio>

namespace cca {

// Layout guard for the table-completeness check: Metrics must be exactly
// kMetricsCounterCount uint64 counters followed by cpu_millis and the five
// phase clocks, with no padding. Since kMetricsCounterCount is derived from
// CCA_METRICS_COUNTER_FIELDS, a counter present in the struct but missing
// from the table (or listed but never declared) fails here; Merge and
// ToString below are generated from the same table, so they can never
// drift from it — the memcpy-view tests in tests/test_metrics.cc prove
// both cover every slot.
static_assert(sizeof(Metrics) == kMetricsCounterCount * sizeof(std::uint64_t) + 6 * sizeof(double),
              "Metrics layout changed: update CCA_METRICS_COUNTER_FIELDS to match");

void Metrics::Merge(const Metrics& other) {
  MergeCounters(other);
  cpu_millis += other.cpu_millis;
  seed_millis += other.seed_millis;
  adopt_millis += other.adopt_millis;
  augment_millis += other.augment_millis;
  cancel_millis += other.cancel_millis;
  extract_millis += other.extract_millis;
}

void Metrics::MergeCounters(const Metrics& other) {
#define CCA_METRICS_MERGE_ONE(field, label) field += other.field;
  CCA_METRICS_COUNTER_FIELDS(CCA_METRICS_MERGE_ONE)
#undef CCA_METRICS_MERGE_ONE
}

std::string Metrics::ToString() const {
  std::string out;
  out.reserve(256);
  char buf[96];
  // Zero counters are skipped so the one-line summary stays readable: a
  // grid-only run never mentions R-tree counters and vice versa.
#define CCA_METRICS_PRINT_ONE(field, label)                                     \
  if (field != 0) {                                                             \
    std::snprintf(buf, sizeof(buf), "%s=%llu ", label,                          \
                  static_cast<unsigned long long>(field));                      \
    out += buf;                                                                 \
  }
  CCA_METRICS_COUNTER_FIELDS(CCA_METRICS_PRINT_ONE)
#undef CCA_METRICS_PRINT_ONE
  std::snprintf(buf, sizeof(buf), "cpu=%.1fms io=%.1fms", cpu_millis, io_millis());
  out += buf;
  const struct {
    const char* label;
    double millis;
  } phases[] = {{"seed", seed_millis},
                {"adopt", adopt_millis},
                {"augment", augment_millis},
                {"cancel", cancel_millis},
                {"extract", extract_millis}};
  for (const auto& phase : phases) {
    if (phase.millis == 0.0) continue;
    std::snprintf(buf, sizeof(buf), " %s=%.3fms", phase.label, phase.millis);
    out += buf;
  }
  return out;
}

}  // namespace cca
