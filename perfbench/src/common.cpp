#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include <sched.h>

namespace perfbench {

namespace {

/// Linear-interpolated quantile q in [0, 1] of `sorted` (ascending).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return sorted[lo] + f * (sorted[hi] - sorted[lo]);
}

}  // namespace

std::size_t cpu_budget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

Quantiles summarize(std::vector<double> samples) {
  Quantiles q;
  q.count = samples.size();
  if (samples.empty()) return q;
  std::sort(samples.begin(), samples.end());
  q.p50 = quantile_sorted(samples, 0.50);
  q.p99 = quantile_sorted(samples, 0.99);
  q.max = samples.back();
  q.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double cut = quantile_sorted(samples, p / 100.0);
    const auto beyond = samples.end() - std::upper_bound(samples.begin(), samples.end(), cut);
    if (beyond >= 10) q.trusted_percentile = p;
  }
  return q;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
