// The three benchmark workloads and the open-loop serving phases they share.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "core/fusion.hpp"
#include "core/hierarchical.hpp"
#include "core/sequence.hpp"
#include "runtime/stats.hpp"
#include "setup.hpp"
#include "trace.hpp"

namespace perfbench {

/// Commit horizon of every decoded stream (and of the decoder probe).
constexpr std::size_t kDecodeLag = 2;

/// The system one run serves and the inputs the generator made for it.
struct Served {
  std::shared_ptr<const sidis::core::HierarchicalDisassembler> model;  ///< power
  std::shared_ptr<const sidis::core::FusedDisassembler> fused;  ///< paired only
  std::shared_ptr<const sidis::core::TransitionPrior> prior;
  std::shared_ptr<const Firmware> firmware;
  SetupTimes setup;  ///< phases of the set-up that built this system
};

/// Outcome of one open-loop phase (fleet or single engine).
struct OpenLoop {
  double rate = 0.0;
  double wall_s = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  bool fifo_ok = true;
  bool ledger_ok = true;
  double backlog_growth = 0.0;  ///< outstanding at the last arrival minus at mid-phase
  std::vector<double> latency_ms;
  std::vector<double> own_late_ms;  ///< generator lateness while it was free
  std::vector<double> submit_us;
  std::vector<double> poll_us;
  std::vector<double> copy_ns;
  std::uint64_t class_total = 0, class_hits = 0;
  std::uint64_t operand_total = 0, operand_hits = 0;
  std::uint64_t rejected_verdicts = 0, degraded_verdicts = 0;
  sidis::runtime::RuntimeStats engine;
  double engine_workers = 0.0;
};

/// Threads the serving runtime may use beside the generator and consumer.
std::size_t serving_workers();

/// Fleet phase: `streams` decoded + drift-monitored streams on one
/// FleetFrontend, Poisson arrivals at `rate` for `seconds`.
OpenLoop run_fleet_phase(const Served& sys, double rate, double seconds,
                         std::size_t streams, std::uint64_t seed, Tracer& tracer);

/// Single-engine phase: one device, windows submitted one at a time to a
/// StreamingDisassembler running the fused stage (power stage when the
/// system is not paired).
OpenLoop run_engine_phase(const Served& sys, double rate, double seconds,
                          std::uint64_t seed, Tracer& tracer);

/// Runs the workload named in `opt` and fills every metric.
RunResult run_workload(const Options& opt, Tracer& tracer);

/// Per-layer probe for the traced run (layers.cpp): times each layer's
/// public functions on a seeded sample of the workload's windows.  Runtime
/// metrics come from the workload's own fleet / single-engine phase when it
/// has one, else from a short open-loop burst of that kind.
void probe_layers(const Served& sys, const Corpus& corpus, const Options& opt,
                  const OpenLoop* fleet_phase, const OpenLoop* engine_phase,
                  Tracer& tracer, RunResult& out);

}  // namespace perfbench
