// Measurement helpers shared by the benchmark workloads (perfbench.cc) and
// the benchmark's own tests (selftest.cc): exact percentiles over retained
// samples, the span log the traced run records around each call into the
// library, and the metric sink the final JSON line is printed from.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Exact nearest-rank percentile: the smallest retained sample with at least
// ceil(q * n) samples at or below it (q in [0, 1]; q = 0 gives the minimum).
// Every value it returns was measured; nothing is bucketed or interpolated.
// Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

// SplitMix64 finaliser: derives independent, reproducible sub-seeds (one per
// input stream) from the workload seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream);

// FNV-1a over raw bytes; fingerprints generated inputs so the tests can
// assert that equal seeds give equal inputs and distinct seeds do not.
class Fingerprint {
 public:
  void Add(const void* data, std::size_t bytes);
  template <typename T>
  void AddValues(const std::vector<T>& values) {
    Add(values.data(), values.size() * sizeof(T));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

// In-memory span log around the benchmark's own calls into the library.
// Disabled logs record nothing (each Scope costs one branch), so the
// untraced phase times exactly what users run. Spans are kept in memory and
// written as Chrome trace JSON once the run ends. Single-threaded: every
// span is opened on the benchmark's driving thread.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int32_t parent;  // index into spans(), -1 for a root span
    std::int64_t op;      // operation the span belongs to
  };
  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time its direct children cover
  };

  // RAII span; inert when the log is null or disabled.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  SpanLog() : origin_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  // Operation id stamped on spans opened from now on.
  void set_op(std::int64_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  // Per span name, in first-seen order.
  std::vector<SelfTime> SelfTimes() const;
  // Chrome trace JSON ("X" complete events, microsecond timestamps).
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::size_t Open(const char* name);
  void Close(std::size_t index);

  bool enabled_ = false;
  std::int64_t op_ = -1;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Spreads a single-threaded closed loop over every CPU the process may run
// on: Next() pins the calling thread to the next allowed CPU, and Step(op)
// calls it once every kOpsPerCpu operations. On shared machines each CPU's speed drifts on its
// own every few seconds, so a loop left on one CPU measures that CPU's luck
// and runs of the same code differ by up to a third; a multi-threaded
// workload already averages over all CPUs. The destructor restores the
// original affinity.
class CpuRotation {
 public:
  static constexpr std::size_t kOpsPerCpu = 8;

  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  void Step(std::size_t op) {
    if (op % kOpsPerCpu == 0) Next();
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool restore_ = false;
  std::vector<unsigned char> saved_;  // the original cpu_set_t
};

struct Metric {
  double value;
  std::string unit;
};

// Ordered name -> metric map for the result line.
using MetricMap = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
