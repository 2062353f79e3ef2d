#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string_view>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

std::int64_t Tracer::begin(const char* name, std::uint64_t window, std::int64_t parent) {
  if (!enabled_) return kNoParent;
  const std::int64_t t = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back({name, t, t, parent, window});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t t = now_ns();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t Tracer::record(const char* name, Clock::time_point start,
                            Clock::time_point end, std::uint64_t window,
                            std::int64_t parent) {
  if (!enabled_) return kNoParent;
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  };
  std::lock_guard lock(mutex_);
  spans_.push_back({name, ns(start), ns(end), parent, window});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

double Tracer::span_cost_ns() {
  constexpr int kSpans = 20000;
  Tracer probe(true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) probe.end(probe.begin("probe", 0));
  return seconds_since(t0) * 1e9 / kSpans;
}

std::vector<Tracer::Row> Tracer::table() const {
  std::lock_guard lock(mutex_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& r = rows[s.name];
    r.name = s.name;
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++r.count;
    r.total_s += d;
    r.self_s += std::max(0.0, d - child_s[i]);
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return a.self_s > b.self_s; });
  return out;
}

namespace {

bool starts_with(const char* name, const std::string& prefix) {
  return std::string_view(name).substr(0, prefix.size()) == prefix;
}

}  // namespace

double Tracer::child_self_s(const std::string& prefix) const {
  std::lock_guard lock(mutex_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0 || !starts_with(spans_[static_cast<std::size_t>(s.parent)].name, prefix)) {
      continue;
    }
    total += std::max(0.0, static_cast<double>(s.end_ns - s.start_ns) * 1e-9 - child_s[i]);
  }
  return total;
}

double Tracer::total_s(const std::string& prefix) const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (starts_with(s.name, prefix)) total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

void Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                    "\"parent\":%lld",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.parent));
    if (s.window != kNoWindow) {
      std::fprintf(f, ",\"window\":%llu", static_cast<unsigned long long>(s.window));
    }
    std::fprintf(f, "}\n");
  }
  std::fclose(f);
}

}  // namespace perfbench
