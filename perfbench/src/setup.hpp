// Load generation and system set-up.
//
// The generator (simulated capture through sim/avr) makes every input from
// the run seed and is not timed as set-up.  Set-up is "corpus in hand ->
// ready to serve": train, calibrate the reject gates, fit fusion, build the
// sequence prior and construct the serving runtime.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/fusion.hpp"
#include "core/hierarchical.hpp"
#include "core/sequence.hpp"
#include "sim/acquisition.hpp"

#include "common.hpp"

namespace perfbench {

/// Operand registers the level-3 models are profiled on (legal for every
/// register-class constraint: immediates r16..r31, ADIW pairs r24..r30).
inline const std::vector<std::uint8_t>& register_spread() {
  static const std::vector<std::uint8_t> spread = {16, 20, 24, 28};
  return spread;
}

/// The paper's full system at benchmark scale: all 112 classes, the CSA
/// pipeline, QDA at every level, rd/rr levels on register_spread().  The
/// unified feature-point cap bounds each level's PCA input so one full
/// 112-class training fits inside a run several times over.
sidis::core::HierarchicalConfig system_config();

/// Simulated capture campaign of device 0; `paired` adds the EM probe.
sidis::sim::AcquisitionCampaign make_campaign(bool paired);

/// Profiling corpus (core::profile_device) plus the held-out traces the
/// reject gates (and, for the paired system, the fusion operating point)
/// are calibrated on.  Both hold rd/rr corpora on register_spread().  On a
/// paired campaign every trace carries both channels; set-up takes the
/// single-channel views it trains on one channel at a time.
struct Corpus {
  sidis::core::ProfilingData train;
  sidis::core::ProfilingData heldout;
};

/// Captures the full corpus on `threads` threads.
Corpus capture_corpus(const sidis::sim::AcquisitionCampaign& campaign,
                      std::uint64_t seed, std::size_t threads);

/// A firmware image executed on the target: windows in execution order with
/// their ground truth taken from the execution trace.
struct Firmware {
  sidis::sim::TraceSet windows;
  std::vector<std::size_t> truth;  ///< class of each window
};

/// Generates a firmware-shaped program (a seeded library of basic blocks,
/// concatenated at random; operands drawn from register_spread()) and
/// captures `windows` windows of its execution in `threads` chunks.
Firmware capture_firmware(const sidis::sim::AcquisitionCampaign& campaign,
                          std::uint64_t seed, std::size_t windows,
                          std::size_t threads);

/// Set-up phase durations (seconds).
struct SetupTimes {
  double train_s = 0.0;
  double calibrate_s = 0.0;
  double fusion_s = 0.0;
  double serve_ready_s = 0.0;
  double total() const { return train_s + calibrate_s + fusion_s + serve_ready_s; }
};

/// Trains one channel hierarchy on `train` and calibrates its reject gates
/// at kBalanced on `heldout`.
std::shared_ptr<const sidis::core::HierarchicalDisassembler> train_channel(
    const sidis::core::ProfilingData& train, const sidis::core::ProfilingData& heldout,
    SetupTimes& times);

/// Power+EM fusion set-up on a paired corpus: one hierarchy per channel
/// (rd/rr levels on the power channel only), joint feature heads, held-out
/// operating-point selection.
std::shared_ptr<const sidis::core::FusedDisassembler> train_fused(const Corpus& corpus,
                                                                  SetupTimes& times);

/// Sequence prior for decoded streams: IsaPrior blended with the bigram
/// statistics of the firmware image (the static code the analyst holds).
std::shared_ptr<const sidis::core::TransitionPrior> firmware_prior(
    const std::vector<std::size_t>& truth);

/// Median of set-up repetitions.
double median(std::vector<double> v);

}  // namespace perfbench
