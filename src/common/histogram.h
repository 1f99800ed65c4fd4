// Fixed-bucket log-scale latency histogram.
//
// The serving benches (bench_engine_qps, bench_engine_dispatch) and the
// AssignmentEngine stats surface need percentiles over latency streams
// without retaining every sample: a long-lived engine resolves millions of
// times, and the old sorted-vector percentile both grows without bound and
// costs a sort per report. `Histogram` keeps a fixed array of counters on
// a log-scale bucket grid, so Record is O(1), memory is constant, and two
// histograms merge by adding counters (the same contract as
// Metrics::Merge — per-thread bundles merged after a batch joins).
//
// Bucket scheme: each power-of-two octave is divided into kSubBuckets
// linear sub-buckets, i.e. bucket edges at m * 2^e for m in
// {1, 1+1/kSub, ...}. With kSubBuckets = 8 the relative width of every
// bucket is at most 1/8 = 12.5%, so any percentile is reproduced within
// one bucket (<= 12.5% relative) of the exact sorted-vector answer —
// pinned by tests/test_trace.cc against the reference computation. Values
// below 2^kMinExponent land in bucket 0, values at or above 2^kMaxExponent
// in the last bucket; exact min/max/sum are tracked on the side so range
// extremes and means stay exact.
//
// Not thread-safe: use one histogram per thread and Merge at joins.
#ifndef CCA_COMMON_HISTOGRAM_H_
#define CCA_COMMON_HISTOGRAM_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace cca {

class Histogram {
 public:
  // 8 linear sub-buckets per octave: <= 12.5% relative bucket width.
  static constexpr int kSubBuckets = 8;
  // Covered value range (in whatever unit the caller records; the benches
  // record milliseconds): [2^-20, 2^30) ~ [1 ns, 12 days) in ms.
  static constexpr int kMinExponent = -20;
  static constexpr int kMaxExponent = 30;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets + 2;
  // A p999 needs enough samples above it to mean anything; below this
  // count a report omits it instead of printing the max under another name.
  static constexpr std::uint64_t kMinP999Samples = 1000;

  void Record(double value) {
    ++counts_[BucketIndex(value)];
    ++count_;
    sum_ += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  std::uint64_t Count() const { return count_; }
  double Sum() const { return sum_; }
  double Mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  double Min() const { return count_ > 0 ? min_ : 0.0; }
  double Max() const { return count_ > 0 ? max_ : 0.0; }

  // Value at rank floor(p * (count - 1)) — the same rank the sorted-vector
  // reference `sorted[size_t(p * (n - 1))]` reports — reproduced at bucket
  // granularity: the returned value is the upper edge of the rank's bucket,
  // clamped into the exact [Min, Max] envelope. p in [0, 1].
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    const auto rank =
        static_cast<std::uint64_t>(p * static_cast<double>(count_ - 1));
    // Rank 0 is the minimum and rank count-1 the maximum, both tracked
    // exactly on the side — report them exactly (p=1.0 would clamp to max
    // through the walk anyway; p=0.0 deserves the same exactness).
    if (rank == 0) return min_;
    if (rank >= count_ - 1) return max_;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      cumulative += counts_[b];
      if (cumulative > rank) {
        const double v = BucketUpperEdge(b);
        return v < min_ ? min_ : (v > max_ ? max_ : v);
      }
    }
    return max_;  // unreachable: cumulative reaches count_ > rank
  }

  // Adds another histogram's samples to this one (same bucket grid by
  // construction — the scheme is compile-time fixed).
  void Merge(const Histogram& other) {
    for (std::size_t b = 0; b < kNumBuckets; ++b) counts_[b] += other.counts_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ > 0) {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
  }

  void Reset() { *this = Histogram{}; }

  // Exposed for the bucket-scheme tests.
  static std::size_t BucketIndex(double value) {
    if (!(value > 0.0) || std::isinf(value)) {
      return value > 0.0 ? kNumBuckets - 1 : 0;
    }
    int exp = 0;
    // frexp: value = m * 2^exp with m in [0.5, 1) — i.e. octave exp - 1.
    const double m = std::frexp(value, &exp);
    const int octave = exp - 1;
    if (octave < kMinExponent) return 0;
    if (octave >= kMaxExponent) return kNumBuckets - 1;
    // m in [0.5, 1): linear position within the octave.
    auto sub = static_cast<int>((m - 0.5) * 2.0 * kSubBuckets);
    if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // m == 1 - ulp edge case
    return 1 + static_cast<std::size_t>(octave - kMinExponent) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

  static double BucketUpperEdge(std::size_t bucket) {
    if (bucket == 0) return std::ldexp(1.0, kMinExponent);
    if (bucket >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
    const std::size_t i = bucket - 1;
    const auto octave = static_cast<int>(i / kSubBuckets);
    const auto sub = static_cast<double>(i % kSubBuckets);
    return std::ldexp(1.0 + (sub + 1.0) / kSubBuckets, kMinExponent + octave);
  }

 private:
  std::array<std::uint64_t, kNumBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace cca

#endif  // CCA_COMMON_HISTOGRAM_H_
