// sidis_perfbench: one run of one benchmark workload.
//
//   sidis_perfbench --workload <fleet_open|firmware_offline|probe_paired>
//                   --seed <n> --seconds <s> --trace <0|1>
//
// Prints one JSON object as its last line: the raw run record (every metric
// with its unit, correctness verdict, violations, details).  perfbench/run.py
// builds the binary, stamps provenance and reduces the record to the
// benchmark's result line.  Exit codes: 0 measured (the record says whether
// it is correct), 2 bad invocation or failure, 3 invalid measurement (the
// generator fell behind its schedule).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef SIDIS_PERFBENCH_BUILD_TYPE
#define SIDIS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Where the traced run writes its spans and layer table (relative to the
/// working directory, the root of the source tree).
constexpr const char* kTraceDir = ".bench_build/traces";

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val != "0";
    else throw std::invalid_argument("unknown option " + key);
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

void print_metrics(const std::map<std::string, Metric>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}");
}

/// Self-time table of the traced run: each span name's self time as a share
/// of the traced workload's wall time, the unattributed residual, and the
/// tracing overhead (spans recorded x measured cost per span).
void write_layer_table(const Tracer& tracer, const Options& opt, RunResult& out) {
  const std::vector<Tracer::Row> rows = tracer.table();
  const double wall = tracer.total_s("workload.");
  const double attributed = tracer.child_self_s("workload.");
  const double overhead_s = static_cast<double>(tracer.size()) * Tracer::span_cost_ns() * 1e-9;
  // The open-loop workloads account their latency per window instead (see
  // probe_layers); the closed loop's spans cover its whole timeline.
  if (out.per_layer.count("trace.attributed_frac") == 0) {
    out.layer("trace.attributed_frac", wall > 0 ? attributed / wall : 0.0, "frac");
  }
  out.layer("trace.overhead_frac", wall > 0 ? overhead_s / wall : 0.0, "frac");

  std::filesystem::create_directories(kTraceDir);
  const std::string stem =
      std::string(kTraceDir) + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
  tracer.write_spans(stem + ".spans.jsonl");
  std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "workload %s seed %llu: traced workload wall %.6f s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), wall);
  std::fprintf(f, "%-30s %10s %12s %12s %10s\n", "span", "count", "total_s", "self_s",
               "share");
  // Shares are of the traced workload wall time; the layer-probe spans
  // (parent layers.probe) ran after it and are listed for their self time.
  for (const Tracer::Row& r : rows) {
    std::fprintf(f, "%-30s %10llu %12.6f %12.6f %9.2f%%\n", r.name.c_str(),
                 static_cast<unsigned long long>(r.count), r.total_s, r.self_s,
                 wall > 0 ? 100.0 * r.self_s / wall : 0.0);
  }
  std::fprintf(f, "attributed (layer self time / workload wall): %.2f%%\n",
               wall > 0 ? 100.0 * attributed / wall : 0.0);
  std::fprintf(f, "unattributed residual: %.2f%%\n",
               wall > 0 ? 100.0 * (1.0 - attributed / wall) : 0.0);
  std::fprintf(f, "tracing overhead: %.4f%% (%zu spans)\n",
               wall > 0 ? 100.0 * overhead_s / wall : 0.0, tracer.size());
  if (out.details.count("account.latency_mean_ms") != 0) {
    const double mean = out.details.at("account.latency_mean_ms");
    const double layers = out.details.at("account.layers_ms");
    std::fprintf(f,
                 "latency account: mean %.4f ms per window, layers %.4f ms (%.2f%%), "
                 "residual %.4f ms\n",
                 mean, layers, mean > 0 ? 100.0 * layers / mean : 0.0, mean - layers);
  }
  std::fprintf(f, "\nlayer probe (per window):\n");
  for (const auto& [name, m] : out.per_layer) {
    std::fprintf(f, "  %-36s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sidis_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    Tracer tracer(opt.trace);
    RunResult r = run_workload(opt, tracer);
    if (!r.invalid.empty()) {
      std::fprintf(stderr, "sidis_perfbench: invalid run: %s\n", r.invalid.c_str());
      return 3;
    }
    if (opt.trace) write_layer_table(tracer, opt, r);
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"build_type\": \"%s\", ",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                SIDIS_PERFBENCH_BUILD_TYPE);
    std::printf("\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"violations\": [",
                r.violations.empty() ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", r.violations[i].c_str());
    }
    std::printf("], \"end_to_end\": ");
    print_metrics(r.end_to_end);
    std::printf(", \"per_layer\": ");
    print_metrics(r.per_layer);
    std::printf(", \"details\": {");
    bool first = true;
    for (const auto& [k, v] : r.details) {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
      first = false;
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sidis_perfbench: %s\n", e.what());
    return 2;
  }
}
