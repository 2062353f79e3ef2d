// Per-layer probe of the traced run.  Each layer is timed from outside the
// library, by calling its public functions on a seeded sample of the
// workload's own windows; spans around the calls land in the run's trace.
#include <algorithm>
#include <random>

#include "avr/grouping.hpp"
#include "dsp/wavelet.hpp"
#include "features/pipeline.hpp"
#include "ml/discriminant.hpp"
#include "runtime/decoder.hpp"
#include "runtime/drift.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sidis;

namespace {

constexpr std::size_t kSample = 64;         ///< windows per kernel call
constexpr std::size_t kDecodeSample = 256;  ///< consecutive windows decoded
constexpr int kReps = 3;                    ///< timed repetitions (median kept)
constexpr double kBurstSeconds = 0.5;
constexpr double kFleetBurstRate = 500.0;
constexpr std::size_t kFleetBurstStreams = 32;
constexpr double kEngineBurstRate = 150.0;

/// Median over kReps repetitions of `fn`'s wall time, per window, in ns.
template <typename Fn>
double per_window_ns(Tracer& tracer, const char* span, std::int64_t parent,
                     std::size_t windows, Fn&& fn) {
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    tracer.record(span, t0, t1, Tracer::kNoWindow, parent);
    ns.push_back(seconds_between(t0, t1) * 1e9 / static_cast<double>(windows));
  }
  return median(ns);
}

void set_if_missing(RunResult& out, const std::string& name, double value,
                    const std::string& unit) {
  if (out.per_layer.count(name) == 0) out.layer(name, value, unit);
}

void fleet_metrics(const OpenLoop& f, RunResult& out) {
  out.layer("runtime.fleet.submit_us_p99", summarize(f.submit_us).p99, "us");
  out.layer("runtime.fleet.poll_us_p99", summarize(f.poll_us).p99, "us");
  out.layer("runtime.fleet.shed_frac",
            f.offered ? double(f.shed + f.rejected) / double(f.offered) : 0.0, "frac");
  const runtime::RuntimeStats& e = f.engine;
  out.layer("runtime.engine.coalescing",
            e.batches_submitted ? double(e.batch_windows) / double(e.batches_submitted) : 0.0,
            "windows");
  // Per window over every submit_batch job of the fleet engine; singleton
  // jobs take the scalar path inside classify_batch, so both halves count.
  const double windows = double(e.batch_classified_windows + e.scalar_classified_windows);
  out.layer("runtime.engine.batch_ns_per_window",
            windows > 0 ? double(e.batch_classify_nanos + e.scalar_classify_nanos) / windows
                        : 0.0,
            "ns");
  set_if_missing(out, "runtime.intake.trace_copy_ns", summarize(f.copy_ns).p50, "ns");
  set_if_missing(out, "gen.lateness_p99_ms", summarize(f.own_late_ms).p99, "ms");
}

void engine_metrics(const OpenLoop& s, RunResult& out) {
  const runtime::RuntimeStats& e = s.engine;
  out.layer("runtime.engine.queue_wait_us", e.queue_wait.mean_nanos() / 1e3, "us");
  const double busy_ns = double(e.batch_classify_nanos + e.scalar_classify_nanos);
  out.layer("runtime.engine.busy_frac",
            busy_ns / (std::max(1.0, s.engine_workers) * s.wall_s * 1e9), "frac");
  set_if_missing(out, "runtime.intake.trace_copy_ns", summarize(s.copy_ns).p50, "ns");
}

}  // namespace

void probe_layers(const Served& sys, const Corpus& corpus, const Options& opt,
                  const OpenLoop* fleet_phase, const OpenLoop* engine_phase,
                  Tracer& tracer, RunResult& out) {
  const core::HierarchicalDisassembler& model = *sys.model;
  const sim::TraceSet& pool = sys.firmware->windows;
  std::mt19937_64 rng(mix_seed(opt.seed, 0x1a7e5));
  const std::size_t start = rng() % (pool.size() - kDecodeSample);
  sim::TraceSet paired(pool.begin() + static_cast<std::ptrdiff_t>(start),
                       pool.begin() + static_cast<std::ptrdiff_t>(start + kSample));
  const sim::TraceSet sample = sim::channel_views(paired, sim::Channel::kPower);
  const std::int64_t root = tracer.begin("layers.probe");

  // -- feature kernels on a refit level-1 pipeline ----------------------------
  // The model's level pipelines are private, so level 1 is refit from the
  // same corpus and config: class-pair selection, group-label QDA.
  const core::HierarchicalConfig cfg = system_config();
  features::LabeledTraces class_input, group_input;
  for (const auto& [cls, traces] : corpus.train.classes) {
    class_input.labels.push_back(static_cast<int>(cls));
    class_input.sets.push_back(&traces);
    group_input.labels.push_back(avr::group_of_class(cls));
    group_input.sets.push_back(&traces);
  }
  features::FeaturePipeline pipeline;
  ml::Qda qda(cfg.factory.discriminant);
  {
    Tracer::Scope refit(tracer, "layers.refit_level1", Tracer::kNoWindow, root);
    const auto pre = features::FeaturePipeline::precompute(class_input, cfg.pipeline);
    std::vector<const features::FeaturePipeline::ClassData*> all;
    for (const auto& cd : pre) all.push_back(&cd);
    pipeline = features::FeaturePipeline::fit(all, cfg.pipeline);
    qda.fit(pipeline.transform(group_input, cfg.group_components));
  }
  const dsp::Cwt cwt(pipeline.config().cwt);
  std::vector<std::size_t> js, ks;
  for (const stats::GridPoint& p : pipeline.unified_points()) {
    js.push_back(p.j);
    ks.push_back(p.k);
  }
  std::vector<std::vector<double>> prepared(kSample);
  std::vector<const std::vector<double>*> ptrs;
  for (const auto& v : prepared) ptrs.push_back(&v);
  dsp::CwtBatchWorkspace ws;
  std::vector<double> soa;
  linalg::Matrix gathered, standardized, projected;
  std::size_t n = 0;
  out.layer("features.preprocess_ns",
            per_window_ns(tracer, "features.preprocess", root, kSample, [&] {
              for (std::size_t i = 0; i < kSample; ++i) {
                prepared[i] = features::FeaturePipeline::preprocess_window(
                    sample[i], pipeline.config().per_trace_normalization);
              }
            }),
            "ns");
  out.layer("dsp.marshal_ns", per_window_ns(tracer, "dsp.marshal", root, kSample, [&] {
              n = dsp::Cwt::marshal(ptrs, soa);
            }),
            "ns");
  out.layer("dsp.cwt_gather_ns", per_window_ns(tracer, "dsp.cwt_gather", root, kSample, [&] {
              gathered = cwt.coefficients_soa(soa, n, kSample, js, ks, ws);
            }),
            "ns");
  const linalg::Matrix rows = gathered.transposed();  // windows as rows
  out.layer("stats.standardize_ns",
            per_window_ns(tracer, "stats.standardize", root, kSample,
                          [&] { standardized = pipeline.scaler().transform(rows); }),
            "ns");
  out.layer("stats.pca_ns", per_window_ns(tracer, "stats.pca", root, kSample, [&] {
              projected = pipeline.pca().transform(standardized, cfg.group_components);
            }),
            "ns");
  const linalg::Matrix cols = projected.transposed();
  out.layer("ml.qda_batch_ns", per_window_ns(tracer, "ml.qda_batch", root, kSample, [&] {
              (void)qda.predict_scored_batch(cols);
            }),
            "ns");

  // -- core: per level and whole-model paths ----------------------------------
  std::vector<int> groups(kSample);
  out.layer("core.level1_ns", per_window_ns(tracer, "core.level1", root, kSample, [&] {
              for (std::size_t i = 0; i < kSample; ++i) groups[i] = model.classify_group(sample[i]);
            }),
            "ns");
  out.layer("core.level2_ns", per_window_ns(tracer, "core.level2", root, kSample, [&] {
              for (std::size_t i = 0; i < kSample; ++i) {
                (void)model.classify_within_group(groups[i], sample[i]);
              }
            }),
            "ns");
  out.layer("core.rd_ns", per_window_ns(tracer, "core.rd", root, kSample, [&] {
              for (const sim::Trace& t : sample) (void)model.classify_rd(t);
            }),
            "ns");
  out.layer("core.rr_ns", per_window_ns(tracer, "core.rr", root, kSample, [&] {
              for (const sim::Trace& t : sample) (void)model.classify_rr(t);
            }),
            "ns");
  out.layer("core.classify_ns", per_window_ns(tracer, "core.classify", root, kSample, [&] {
              for (const sim::Trace& t : sample) (void)model.classify(t);
            }),
            "ns");
  out.layer("core.classify_scored_ns",
            per_window_ns(tracer, "core.classify_scored", root, kSample, [&] {
              for (const sim::Trace& t : sample) (void)model.classify_scored(t);
            }),
            "ns");
  out.layer("core.batch_ns", per_window_ns(tracer, "core.batch", root, kSample,
                                           [&] { (void)model.classify_batch(sample); }),
            "ns");
  out.layer("core.batch_scored_ns",
            per_window_ns(tracer, "core.batch_scored", root, kSample,
                          [&] { (void)model.classify_batch_scored(sample); }),
            "ns");
  // A power-only deployment runs the fusion layer degenerate to its single
  // channel; the paired workload runs it with both.
  const Clock::time_point f0 = Clock::now();
  const auto fused = sys.fused ? sys.fused
                               : std::make_shared<const core::FusedDisassembler>(sys.model, nullptr);
  if (!sys.fused) out.layer("setup.fusion_s", seconds_since(f0), "s");
  out.layer("core.fused_ns", per_window_ns(tracer, "core.fused", root, kSample, [&] {
              for (const sim::Trace& t : paired) (void)fused->classify(t);
            }),
            "ns");
  out.layer("core.fused_batch_ns", per_window_ns(tracer, "core.fused_batch", root, kSample,
                                                 [&] { (void)fused->classify_batch(paired); }),
            "ns");

  // -- runtime: decoder and drift monitor on a consecutive stretch ------------
  const sim::TraceSet stretch = sim::channel_views(
      sim::TraceSet(pool.begin() + static_cast<std::ptrdiff_t>(start),
                    pool.begin() + static_cast<std::ptrdiff_t>(start + kDecodeSample)),
      sim::Channel::kPower);
  const std::vector<core::Disassembly> scored = model.classify_batch_scored(stretch);
  std::uint64_t smoothed = 0;
  out.layer("runtime.decoder.push_ns",
            per_window_ns(tracer, "runtime.decoder.push", root, kDecodeSample, [&] {
              runtime::SequenceDecoderConfig dcfg;
              dcfg.lag = kDecodeLag;
              runtime::SequenceDecoder decoder(model.posterior_classes(), sys.prior, dcfg);
              for (const core::Disassembly& d : scored) {
                decoder.push(d);
                while (decoder.poll()) {
                }
              }
              (void)decoder.flush();
              smoothed = decoder.smoothed_count();
            }),
            "ns");
  out.layer("runtime.decoder.smoothed_frac",
            static_cast<double>(smoothed) / static_cast<double>(kDecodeSample), "frac");
  out.layer("runtime.drift.observe_ns",
            per_window_ns(tracer, "runtime.drift.observe", root, kDecodeSample, [&] {
              runtime::DriftMonitor monitor(sys.model);
              for (std::size_t i = 0; i < stretch.size(); ++i) monitor.observe(stretch[i], scored[i]);
            }),
            "ns");
  tracer.end(root);

  // -- runtime: fleet and single-window engine --------------------------------
  Tracer untraced(false);
  if (fleet_phase != nullptr) {
    fleet_metrics(*fleet_phase, out);
  } else {
    fleet_metrics(run_fleet_phase(sys, kFleetBurstRate, kBurstSeconds,
                                  kFleetBurstStreams, mix_seed(opt.seed, 0xb1), untraced),
                  out);
  }
  // Latency account of the workload's own open-loop phase: how much of the
  // mean per-window latency the measured layers explain (engine queue wait,
  // classify time per window and, on the fleet, the decode and drift work
  // serialized in the polling thread).
  if (const OpenLoop* own = fleet_phase != nullptr ? fleet_phase : engine_phase) {
    const runtime::RuntimeStats& e = own->engine;
    const double windows = double(e.batch_classified_windows + e.scalar_classified_windows);
    const double account_ms =
        e.queue_wait.mean_nanos() / 1e6 +
        (windows > 0 ? double(e.batch_classify_nanos + e.scalar_classify_nanos) / windows / 1e6
                     : 0.0) +
        (fleet_phase != nullptr ? (out.per_layer.at("runtime.decoder.push_ns").value +
                                   out.per_layer.at("runtime.drift.observe_ns").value) /
                                      1e6
                                : 0.0);
    const double mean_ms = summarize(own->latency_ms).mean;
    out.details["account.latency_mean_ms"] = mean_ms;
    out.details["account.layers_ms"] = account_ms;
    out.layer("trace.attributed_frac", mean_ms > 0 ? account_ms / mean_ms : 0.0, "frac");
  }
  if (engine_phase != nullptr) {
    engine_metrics(*engine_phase, out);
  } else {
    engine_metrics(run_engine_phase(sys, kEngineBurstRate, kBurstSeconds,
                                    mix_seed(opt.seed, 0xb2), untraced),
                   out);
  }
}

}  // namespace perfbench
