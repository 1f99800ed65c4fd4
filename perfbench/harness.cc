#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n));
  return samples[rank == 0 ? 0 : rank - 1];
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Fingerprint::Add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

CpuRotation::CpuRotation() : saved_(sizeof(cpu_set_t)) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::memcpy(saved_.data(), &allowed, sizeof(allowed));
  restore_ = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!restore_) return;
  cpu_set_t allowed;
  std::memcpy(&allowed, saved_.data(), sizeof(allowed));
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

SpanLog::Scope::Scope(SpanLog* log, const char* name)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ != nullptr) index_ = log_->Open(name);
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr) log_->Close(index_);
}

std::size_t SpanLog::Open(const char* name) {
  const std::int64_t start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  const std::int32_t parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  spans_.push_back(Span{name, start, 0, parent, op_});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(std::size_t index) {
  const std::int64_t end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  spans_[index].dur_ns = end - spans_[index].start_ns;
  open_.pop_back();
}

std::vector<SpanLog::SelfTime> SpanLog::SelfTimes() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.dur_ns);
    }
  }
  std::vector<SelfTime> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto [it, fresh] = slot.emplace(spans_[i].name, out.size());
    if (fresh) out.push_back(SelfTime{spans_[i].name});
    SelfTime& t = out[it->second];
    ++t.count;
    t.total_ms += static_cast<double>(spans_[i].dur_ns) / 1e6;
    t.self_ms += (static_cast<double>(spans_[i].dur_ns) - child_ns[i]) / 1e6;
  }
  return out;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"op\": %lld}}%s\n",
                 s.name, static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<long long>(s.op), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
