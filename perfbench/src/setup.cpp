#include "setup.hpp"

#include <algorithm>
#include <stdexcept>

#include "avr/grouping.hpp"
#include "avr/program.hpp"
#include "core/csa.hpp"
#include "core/profiler.hpp"
#include "runtime/thread_pool.hpp"

namespace perfbench {

using namespace sidis;

namespace {

constexpr std::size_t kTracesPerClass = 40;
constexpr std::size_t kTracesPerRegister = 120;
constexpr std::size_t kHeldoutPerClass = 6;
constexpr std::size_t kHeldoutPerRegister = 24;
constexpr int kTrainPrograms = 10;
constexpr int kHeldoutFirstProgram = 40;
constexpr int kHeldoutPrograms = 3;

/// Classes a generated firmware may execute: everything whose random
/// instance keeps execution linear once control-flow targets are patched to
/// the next instruction (skips, returns and indirect transfers would jump
/// to an unmodelled address).
std::vector<std::size_t> firmware_classes() {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < avr::num_instruction_classes(); ++c) {
    switch (avr::instruction_classes()[c].mnemonic) {
      case avr::Mnemonic::kCpse:
      case avr::Mnemonic::kSbrc:
      case avr::Mnemonic::kSbrs:
      case avr::Mnemonic::kSbic:
      case avr::Mnemonic::kSbis:
      case avr::Mnemonic::kIjmp:
      case avr::Mnemonic::kIcall:
      case avr::Mnemonic::kRet:
      case avr::Mnemonic::kReti:
      case avr::Mnemonic::kSleep:
      case avr::Mnemonic::kBreak:
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Single-channel view of a paired corpus; `registers` keeps the rd/rr
/// corpora.
core::ProfilingData channel_data(const core::ProfilingData& paired, sim::Channel channel,
                                 bool registers) {
  core::ProfilingData out;
  for (const auto& [c, traces] : paired.classes) {
    out.classes[c] = sim::channel_views(traces, channel);
  }
  if (registers) {
    for (const auto& [r, traces] : paired.rd_classes) {
      out.rd_classes[r] = sim::channel_views(traces, channel);
    }
    for (const auto& [r, traces] : paired.rr_classes) {
      out.rr_classes[r] = sim::channel_views(traces, channel);
    }
  }
  return out;
}

avr::Instruction spread_instance(std::size_t cls, std::mt19937_64& rng) {
  const auto& spread = register_spread();
  avr::SampleOptions opts;
  opts.fix_rd = spread[rng() % spread.size()];
  opts.fix_rr = spread[rng() % spread.size()];
  return avr::random_instance(cls, rng, opts);
}

}  // namespace

core::HierarchicalConfig system_config() {
  core::HierarchicalConfig cfg;
  cfg.pipeline = core::csa_config();
  cfg.pipeline.max_unified_points = 128;
  cfg.factory.discriminant.shrinkage = 0.15;
  return cfg;
}

sim::AcquisitionCampaign make_campaign(bool paired) {
  sim::AcquisitionOptions opts;
  if (paired) {
    // The probe hardening bench_fusion uses: noisier and narrower-band than
    // the shunt, so each channel commits its own errors.
    opts.em.enabled = true;
    opts.em.noise_sigma = 0.05;
    opts.em.bandwidth_fraction = 0.08;
    opts.em.coupling_lo = 0.85;
    opts.em.coupling_hi = 1.15;
  }
  return sim::AcquisitionCampaign(sim::DeviceModel::make(0), sim::SessionContext::make(0),
                                  sim::LeakageConfig{}, sim::ScopeConfig{}, opts);
}

Corpus capture_corpus(const sim::AcquisitionCampaign& campaign, std::uint64_t seed,
                      std::size_t threads) {
  Corpus corpus;
  core::ProfilerConfig profile;
  profile.traces_per_class = kTracesPerClass;
  profile.traces_per_register = kTracesPerRegister;
  profile.num_programs = kTrainPrograms;
  profile.registers = register_spread();
  profile.workers = threads;
  std::mt19937_64 rng(seed);
  corpus.train = core::profile_device(campaign, profile, rng);

  // Held-out traces come from programs the profile never ran.  Items:
  // [class | rd | rr], one RNG stream each.
  const std::size_t classes = avr::num_instruction_classes();
  const auto& spread = register_spread();
  std::vector<sim::TraceSet> held(classes + 2 * spread.size());
  runtime::parallel_for(held.size(), threads, [&](std::size_t i) {
    std::mt19937_64 item_rng(mix_seed(seed, i));
    if (i < classes) {
      held[i] = campaign.capture_class(i, kHeldoutPerClass, kHeldoutPrograms, item_rng,
                                       kHeldoutFirstProgram);
      return;
    }
    const std::size_t k = i - classes;
    held[i] = campaign.capture_register(k < spread.size(), spread[k % spread.size()],
                                        kHeldoutPerRegister, kHeldoutPrograms, item_rng,
                                        kHeldoutFirstProgram);
  });
  for (std::size_t c = 0; c < classes; ++c) corpus.heldout.classes[c] = std::move(held[c]);
  for (std::size_t k = 0; k < spread.size(); ++k) {
    corpus.heldout.rd_classes[spread[k]] = std::move(held[classes + k]);
    corpus.heldout.rr_classes[spread[k]] = std::move(held[classes + spread.size() + k]);
  }
  return corpus;
}

Firmware capture_firmware(const sim::AcquisitionCampaign& campaign, std::uint64_t seed,
                          std::size_t windows, std::size_t threads) {
  // A block library gives the image compiler-like bigram structure: the
  // same short sequences recur, so the sequence prior has evidence to use.
  constexpr std::size_t kBlocks = 48;
  std::mt19937_64 rng(mix_seed(seed, 0xf1));
  const std::vector<std::size_t> allowed = firmware_classes();
  // Blocks are cut from shuffled passes over the allowed classes, so every
  // class appears in the library about equally often whatever the seed.
  std::vector<std::size_t> deck;
  std::vector<std::vector<std::size_t>> library(kBlocks);
  for (auto& block : library) {
    block.resize(3 + rng() % 7);
    for (std::size_t& c : block) {
      if (deck.empty()) {
        deck = allowed;
        std::shuffle(deck.begin(), deck.end(), rng);
      }
      c = deck.back();
      deck.pop_back();
    }
  }

  // Chunks execute as separate captures (each with its own SBI/NOP
  // preamble), so they can be captured in parallel.
  // The last instructions of a capture yield no complete window, so each
  // chunk is planned with a margin.
  constexpr std::size_t kChunk = 1024;
  constexpr std::size_t kUsable = kChunk - 16;
  const std::size_t chunks = (windows + kUsable - 1) / kUsable;
  std::vector<avr::Program> programs(chunks);
  for (avr::Program& p : programs) {
    // Trigger preamble SBI PORTB,5 + NOP, as on the profiling bench.
    avr::Instruction sbi;
    sbi.mnemonic = avr::Mnemonic::kSbi;
    sbi.io = avr::SegmentTemplate::kTriggerIo;
    sbi.bit = avr::SegmentTemplate::kTriggerBit;
    p.push_back(sbi);
    p.push_back(avr::Instruction{});
    while (p.size() < kChunk + 2) {
      for (std::size_t c : library[rng() % kBlocks]) p.push_back(spread_instance(c, rng));
    }
    p.resize(kChunk + 2);
    avr::finalize_control_flow(p);
  }
  std::vector<sim::TraceSet> captured(chunks);
  runtime::parallel_for(chunks, threads, [&](std::size_t i) {
    std::mt19937_64 crng(mix_seed(seed, 0xc0 + i));
    captured[i] = campaign.capture_program(
        programs[i], sim::ProgramContext::make(static_cast<int>(200 + i)), crng,
        kChunk + 2);
  });
  Firmware fw;
  for (sim::TraceSet& chunk : captured) {
    for (sim::Trace& w : chunk) {
      if (fw.windows.size() == windows) break;
      const auto cls = avr::class_of(w.meta.instr);
      if (!cls) continue;  // the preamble NOP is outside the 112 classes
      fw.truth.push_back(*cls);
      fw.windows.push_back(std::move(w));
    }
  }
  if (fw.windows.size() < windows) {
    throw std::runtime_error("firmware capture produced too few windows");
  }
  return fw;
}

std::shared_ptr<const core::HierarchicalDisassembler> train_channel(
    const core::ProfilingData& train, const core::ProfilingData& heldout,
    SetupTimes& times) {
  Clock::time_point t0 = Clock::now();
  core::HierarchicalDisassembler model =
      core::HierarchicalDisassembler::train(train, system_config());
  times.train_s += seconds_since(t0);
  t0 = Clock::now();
  model.calibrate_reject(heldout, core::RejectOperatingPoint::kBalanced);
  times.calibrate_s += seconds_since(t0);
  return std::make_shared<const core::HierarchicalDisassembler>(std::move(model));
}

std::shared_ptr<const core::FusedDisassembler> train_fused(const Corpus& corpus,
                                                           SetupTimes& times) {
  // Each channel's view lives only while that channel trains.
  std::shared_ptr<const core::HierarchicalDisassembler> power, em;
  {
    const core::ProfilingData train = channel_data(corpus.train, sim::Channel::kPower, true);
    const core::ProfilingData held = channel_data(corpus.heldout, sim::Channel::kPower, true);
    power = train_channel(train, held, times);
  }
  {
    const core::ProfilingData train = channel_data(corpus.train, sim::Channel::kEm, false);
    const core::ProfilingData held = channel_data(corpus.heldout, sim::Channel::kEm, false);
    em = train_channel(train, held, times);
  }
  sim::TraceSet heldout;
  for (const auto& [c, traces] : corpus.heldout.classes) {
    heldout.insert(heldout.end(), traces.begin(), traces.end());
  }
  const Clock::time_point t0 = Clock::now();
  auto fused = std::make_shared<core::FusedDisassembler>(std::move(power), std::move(em));
  fused->train_feature_heads(corpus.train.classes);
  // Keep both channels in the mix, as bench_fusion's deployment policy does.
  core::FusionCalibration cal;
  cal.weight_grid = {0.75, 0.5, 0.25};
  fused->calibrate_fusion(heldout, cal);
  times.fusion_s += seconds_since(t0);
  return fused;
}

std::shared_ptr<const core::TransitionPrior> firmware_prior(
    const std::vector<std::size_t>& truth) {
  core::BigramPrior evidence(avr::num_instruction_classes());
  for (std::size_t i = 1; i < truth.size(); ++i) {
    evidence.add_transition(truth[i - 1], truth[i]);
  }
  return std::make_shared<const core::IsaPrior>(evidence);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
