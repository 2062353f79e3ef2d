// In-memory span recorder for the traced run.  Spans are recorded by the
// benchmark around its calls into each layer's public functions (the
// library itself is not instrumented), kept in memory, and written out when
// the run ends together with a per-layer self-time table.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint64_t kNoWindow = ~std::uint64_t{0};
  static constexpr std::int64_t kNoParent = -1;

  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = kNoParent;
    std::uint64_t window = kNoWindow;
  };

  /// A disabled tracer records nothing and costs one branch per call.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (kNoParent when disabled).
  std::int64_t begin(const char* name, std::uint64_t window = kNoWindow,
                     std::int64_t parent = kNoParent);
  void end(std::int64_t id);

  /// Records a span whose interval was measured by the caller.
  std::int64_t record(const char* name, Clock::time_point start, Clock::time_point end,
                      std::uint64_t window = kNoWindow, std::int64_t parent = kNoParent);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t window = kNoWindow,
          std::int64_t parent = kNoParent)
        : tracer_(t), id_(t.begin(name, window, parent)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::int64_t id_;
  };

  std::size_t size() const;

  /// Measured cost of recording one span (begin + end), in ns.
  static double span_cost_ns();

  /// Per-name aggregate over the recorded spans.
  struct Row {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus the time covered by child spans
  };
  /// Self-time table, sorted by self time (descending).
  std::vector<Row> table() const;

  /// Summed self time of the spans whose parent's name starts with
  /// `prefix`: the work the traced phase attributed to its layers.
  double child_self_s(const std::string& prefix) const;

  /// Wall time of the spans whose name starts with `prefix`.
  double total_s(const std::string& prefix) const;

  /// Writes the spans (one JSON object per line) to `path`.
  void write_spans(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
