// Shared vocabulary of the repository benchmark: run options, the metric
// record every workload fills, exact quantiles over raw samples, and the
// per-window latency ledger of the open-loop workloads.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 6.0;
  bool trace = false;
};

/// Thread budget of a run (generator + consumer + workers): the CPUs this
/// process may run on.
std::size_t cpu_budget();

/// Exact order statistics over raw samples (never a histogram bucket).
struct Quantiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  /// Highest percentile P in {50, 90, 99, 99.9, 99.99} with at least ten
  /// samples strictly above the P-th order statistic (0 when none has).
  double trusted_percentile = 0.0;
};

/// Sorts a copy of `samples` and computes the exact summary.
Quantiles summarize(std::vector<double> samples);

/// Metrics of one run.  Every value carries its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness violations; any entry fails the run.
  std::vector<std::string> violations;
  /// Set when the measurement itself is unusable (the generator fell
  /// behind its schedule): the run is refused instead of reported.
  std::string invalid;
  /// Free-form key/value details written next to the metrics (sample
  /// counts, trusted percentiles, ladder rungs).
  std::map<std::string, double> details;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// splitmix64: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
