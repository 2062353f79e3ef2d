#include "core/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "avr/isa.hpp"
#include "core/sequence.hpp"

namespace sidis::core {

namespace {

/// A level with one distinct label needs no classifier -- e.g. the group
/// level when every profiled class lives in the same group.
bool single_label(const std::vector<int>& labels) {
  return std::all_of(labels.begin(), labels.end(),
                     [&](int l) { return l == labels.front(); });
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Low quantile of an unsorted sample (sorts a copy; calibration-time only).
double low_quantile(std::vector<double> v, double q) {
  if (v.empty()) return -kInf;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Folds one level's calibrated gate into a window's verdict and worst
/// headrooms.  `fatal` gates (group/instruction) reject the window; register
/// gates only degrade it -- the opcode is still trusted, the operand is not.
void fold_gate(Disassembly& o, const HierarchicalDisassembler::LevelGate& gate,
               const ml::ScoredPrediction& p, bool fatal) {
  if (!gate.active) return;
  const double margin_headroom = p.margin - gate.margin_floor;
  const double score_headroom = p.top_score - gate.score_floor;
  o.margin_headroom = std::min(o.margin_headroom, margin_headroom);
  o.score_headroom = std::min(o.score_headroom, score_headroom);
  if (margin_headroom < 0.0 || score_headroom < 0.0) {
    o.verdict = fatal ? Verdict::kRejected : std::max(o.verdict, Verdict::kDegraded);
  }
}

/// One level's output over a lane subset: the scored prediction per lane,
/// and (classes x lanes) log-softmax factors when the level contributed a
/// posterior; empty `logp` means a one-hot factor at the prediction.
struct LevelRun {
  std::vector<ml::ScoredPrediction> pred;
  linalg::Matrix logp;
};

}  // namespace

bool malformed(const sim::Trace& window) {
  return window.samples.empty() ||
         !std::all_of(window.samples.begin(), window.samples.end(),
                      [](double v) { return std::isfinite(v); });
}

std::string to_string(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kDegraded: return "degraded";
    case Verdict::kRejected: return "rejected";
  }
  return "unknown";
}

std::string to_string(RejectOperatingPoint point) {
  switch (point) {
    case RejectOperatingPoint::kMonitoring: return "monitoring";
    case RejectOperatingPoint::kBalanced: return "balanced";
    case RejectOperatingPoint::kStrict: return "strict";
    case RejectOperatingPoint::kCustom: return "custom";
  }
  return "unknown";
}

RejectConfig reject_config_for(RejectOperatingPoint point) {
  // Quantiles are monotone across the presets (and balanced/strict shrink
  // the slack), which makes the gate floors monotone and the rejection sets
  // nested -- see the enum comment; the core_test battery pins this.
  switch (point) {
    case RejectOperatingPoint::kMonitoring: return RejectConfig{0.005, 0.005, 0.5};
    case RejectOperatingPoint::kBalanced: return RejectConfig{0.02, 0.02, 0.25};
    case RejectOperatingPoint::kStrict: return RejectConfig{0.05, 0.05, 0.0};
    case RejectOperatingPoint::kCustom: break;
  }
  throw std::invalid_argument("reject_config_for: kCustom names no preset");
}

avr::Instruction Disassembly::to_instruction() const {
  const avr::ClassSpec& spec = avr::instruction_classes().at(class_idx);
  avr::Instruction in;
  in.mnemonic = spec.mnemonic;
  in.mode = spec.mode;
  if (rd) in.rd = *rd;
  if (rr) in.rr = *rr;
  return in;
}

std::string Disassembly::text() const { return avr::to_string(to_instruction()); }

HierarchicalDisassembler::Level HierarchicalDisassembler::train_level(
    const features::LabeledTraces& input, const HierarchicalConfig& config,
    std::size_t components) {
  Level level;
  level.components = components;
  if (single_label(input.labels)) {
    level.trivial = true;
    level.only_label = input.labels.front();
    return level;
  }
  level.pipeline = features::FeaturePipeline::fit(input, config.pipeline);
  const ml::Dataset train = level.pipeline.transform(input, components);
  level.classifier = ml::make_classifier(config.classifier, config.factory);
  level.classifier->fit(train);
  return level;
}

HierarchicalDisassembler::Level HierarchicalDisassembler::train_level_precomputed(
    const std::vector<const features::FeaturePipeline::ClassData*>& data,
    const features::LabeledTraces& input, const HierarchicalConfig& config,
    std::size_t components) {
  Level level;
  level.components = components;
  if (single_label(input.labels)) {
    level.trivial = true;
    level.only_label = input.labels.front();
    return level;
  }
  level.pipeline = features::FeaturePipeline::fit(data, config.pipeline);
  const ml::Dataset train = level.pipeline.transform(input, components);
  level.classifier = ml::make_classifier(config.classifier, config.factory);
  level.classifier->fit(train);
  return level;
}

int HierarchicalDisassembler::predict_level(const Level& level,
                                            const sim::Trace& trace,
                                            std::size_t components) {
  if (level.trivial) return level.only_label;
  if (level.classifier == nullptr) throw std::runtime_error("level not trained");
  const std::size_t k = components == SIZE_MAX ? level.components : components;
  // When the caller overrides the component count we must also truncate what
  // the classifier saw at fit time, so overrides only make sense on levels
  // evaluated standalone; the benches refit per sweep point instead.
  return level.classifier->predict(level.pipeline.transform(trace, k));
}

ml::ScoredPrediction HierarchicalDisassembler::predict_level_scored(
    const Level& level, const sim::Trace& trace, std::size_t components) {
  if (level.trivial) return {level.only_label, kInf, kInf};
  if (level.classifier == nullptr) throw std::runtime_error("level not trained");
  const std::size_t k = components == SIZE_MAX ? level.components : components;
  return level.classifier->predict_scored(level.pipeline.transform(trace, k));
}

void HierarchicalDisassembler::calibrate_level(Level& level,
                                               const features::LabeledTraces& input,
                                               const RejectConfig& config) {
  if (level.trivial) return;
  std::vector<double> margins;
  std::vector<double> scores;
  for (const sim::TraceSet* set : input.sets) {
    for (const sim::Trace& trace : *set) {
      const ml::ScoredPrediction p = predict_level_scored(level, trace, SIZE_MAX);
      margins.push_back(p.margin);
      scores.push_back(p.top_score);
    }
  }
  if (margins.empty()) return;
  level.gate.margin_floor = low_quantile(margins, config.margin_quantile);
  const double q = low_quantile(scores, config.score_quantile);
  const double median = low_quantile(scores, 0.5);
  // Widen the outlier floor below the clean quantile; the spread to the
  // median scales the slack to the level's own score dispersion.
  level.gate.score_floor = q - config.score_slack * std::max(0.0, median - q);
  level.gate.active = true;
}

void HierarchicalDisassembler::calibrate_reject(const ProfilingData& clean,
                                                RejectOperatingPoint point) {
  calibrate_reject(clean, reject_config_for(point));
  reject_point_ = point;
}

void HierarchicalDisassembler::calibrate_reject(const ProfilingData& clean,
                                                const RejectConfig& config) {
  reject_point_ = RejectOperatingPoint::kCustom;
  features::LabeledTraces group_input;
  std::map<int, features::LabeledTraces> per_group;
  for (const auto& [class_idx, traces] : clean.classes) {
    const int group = avr::group_of_class(class_idx);
    group_input.labels.push_back(group);
    group_input.sets.push_back(&traces);
    per_group[group].labels.push_back(static_cast<int>(class_idx));
    per_group[group].sets.push_back(&traces);
  }
  if (!group_input.sets.empty()) {
    calibrate_level(group_level_, group_input, config);
  }
  for (auto& [group, level] : instruction_levels_) {
    const auto it = per_group.find(group);
    if (it != per_group.end()) calibrate_level(level, it->second, config);
  }
  const auto calibrate_registers = [&](Level* level,
                                       const std::map<std::uint8_t, sim::TraceSet>& sets) {
    if (level == nullptr || sets.empty()) return;
    features::LabeledTraces input;
    for (const auto& [reg, traces] : sets) {
      input.labels.push_back(static_cast<int>(reg));
      input.sets.push_back(&traces);
    }
    calibrate_level(*level, input, config);
  };
  calibrate_registers(rd_level_.get(), clean.rd_classes);
  calibrate_registers(rr_level_.get(), clean.rr_classes);
}

void HierarchicalDisassembler::recalibrate(const sim::TraceSet& recal, bool rescale) {
  const auto renorm = [&](Level& level) {
    if (level.trivial) return;
    level.pipeline = level.pipeline.renormalized(recal, rescale);
  };
  renorm(group_level_);
  for (auto& [group, level] : instruction_levels_) {
    (void)group;
    renorm(level);
  }
  if (rd_level_) renorm(*rd_level_);
  if (rr_level_) renorm(*rr_level_);
}

void HierarchicalDisassembler::refit_classifiers(const ProfilingData& data) {
  const auto refit = [&](Level& level, const features::LabeledTraces& input) {
    if (level.trivial || level.classifier == nullptr) return;
    // Can't retrain a decision boundary on fewer than two labels.
    if (input.sets.size() < 2 || single_label(input.labels)) return;
    const ml::Dataset train = level.pipeline.transform(input, level.components);
    auto classifier = ml::make_classifier(config_.classifier, config_.factory);
    classifier->fit(train);
    level.classifier = std::move(classifier);
  };

  features::LabeledTraces group_input;
  std::map<int, features::LabeledTraces> per_group;
  for (const auto& [class_idx, traces] : data.classes) {
    if (traces.empty()) continue;
    const int group = avr::group_of_class(class_idx);
    group_input.labels.push_back(group);
    group_input.sets.push_back(&traces);
    per_group[group].labels.push_back(static_cast<int>(class_idx));
    per_group[group].sets.push_back(&traces);
  }
  refit(group_level_, group_input);
  for (auto& [group, level] : instruction_levels_) {
    const auto it = per_group.find(group);
    if (it != per_group.end()) refit(level, it->second);
  }
  const auto refit_registers = [&](Level* level,
                                   const std::map<std::uint8_t, sim::TraceSet>& sets) {
    if (level == nullptr || sets.empty()) return;
    features::LabeledTraces input;
    for (const auto& [reg, traces] : sets) {
      input.labels.push_back(static_cast<int>(reg));
      input.sets.push_back(&traces);
    }
    refit(*level, input);
  };
  refit_registers(rd_level_.get(), data.rd_classes);
  refit_registers(rr_level_.get(), data.rr_classes);
}

HierarchicalDisassembler HierarchicalDisassembler::train(const ProfilingData& data,
                                                         HierarchicalConfig config) {
  if (data.classes.empty()) {
    throw std::invalid_argument("HierarchicalDisassembler::train: no profiled classes");
  }
  HierarchicalDisassembler d;
  d.config_ = config;

  // Levels 1 and 2 see the same traces (level 1 with group labels, level 2
  // with class labels), so the expensive per-class CWT moment/mask pass is
  // computed once and shared.
  features::LabeledTraces class_input;
  features::LabeledTraces group_input;
  std::map<int, features::LabeledTraces> per_group;
  for (const auto& [class_idx, traces] : data.classes) {
    if (traces.empty()) {
      throw std::invalid_argument("HierarchicalDisassembler::train: empty class corpus");
    }
    const int group = avr::group_of_class(class_idx);
    class_input.labels.push_back(static_cast<int>(class_idx));
    class_input.sets.push_back(&traces);
    group_input.labels.push_back(group);
    group_input.sets.push_back(&traces);
    per_group[group].labels.push_back(static_cast<int>(class_idx));
    per_group[group].sets.push_back(&traces);
  }
  const std::vector<features::FeaturePipeline::ClassData> precomputed =
      features::FeaturePipeline::precompute(class_input, config.pipeline);
  std::map<std::size_t, const features::FeaturePipeline::ClassData*> by_class;
  for (const auto& cd : precomputed) {
    by_class[static_cast<std::size_t>(cd.label)] = &cd;
  }

  // Level 1: group classification over all profiled classes.  The pipeline
  // fit only consumes moments/masks/traces, so class-level precompute data
  // serves directly; the classifier pools samples by the group labels.
  {
    std::vector<const features::FeaturePipeline::ClassData*> all;
    for (const auto& cd : precomputed) all.push_back(&cd);
    d.group_level_ =
        train_level_precomputed(all, group_input, config, config.group_components);
  }

  // Level 2: one model per group with at least 2 profiled classes.
  for (const auto& [group, input] : per_group) {
    std::vector<const features::FeaturePipeline::ClassData*> subset;
    for (int label : input.labels) {
      subset.push_back(by_class.at(static_cast<std::size_t>(label)));
    }
    d.instruction_levels_[group] = train_level_precomputed(
        subset, input, config, config.instruction_components);
  }

  // Level 3: register recovery.
  const auto train_registers = [&](const std::map<std::uint8_t, sim::TraceSet>& sets)
      -> std::unique_ptr<Level> {
    if (sets.size() < 2) return nullptr;
    features::LabeledTraces input;
    for (const auto& [reg, traces] : sets) {
      input.labels.push_back(static_cast<int>(reg));
      input.sets.push_back(&traces);
    }
    return std::make_unique<Level>(
        train_level(input, config, config.register_components));
  };
  d.rd_level_ = train_registers(data.rd_classes);
  d.rr_level_ = train_registers(data.rr_classes);

  // Posterior support: exactly the profiled classes (data.classes is an
  // ordered map, so the support comes out ascending).
  for (const auto& [class_idx, traces] : data.classes) {
    (void)traces;
    d.posterior_classes_.push_back(class_idx);
  }

  // Training moments for drift monitoring: pool every training trace through
  // the monitor level's pipeline and keep per-feature mean/variance.  The
  // batched transform is worker-count-invariant, and the row-order reduction
  // below is sequential, so the moments are bit-identical for any
  // PipelineConfig::workers setting.
  if (const Level* watch = d.monitor_level(); watch != nullptr) {
    const ml::Dataset projected =
        watch->pipeline.transform(class_input, watch->components);
    if (projected.size() > 0) {
      const std::size_t dim = projected.dim();
      const double n = static_cast<double>(projected.size());
      linalg::Vector mean(dim, 0.0);
      linalg::Vector sq(dim, 0.0);
      for (std::size_t r = 0; r < projected.size(); ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
          mean[c] += projected.x(r, c);
          sq[c] += projected.x(r, c) * projected.x(r, c);
        }
      }
      linalg::Vector variance(dim, 0.0);
      for (std::size_t c = 0; c < dim; ++c) {
        mean[c] /= n;
        variance[c] = std::max(0.0, sq[c] / n - mean[c] * mean[c]);
      }
      d.training_moments_ = {std::move(mean), std::move(variance),
                             static_cast<std::uint64_t>(projected.size())};
    }
  }
  return d;
}

const HierarchicalDisassembler::Level* HierarchicalDisassembler::monitor_level() const {
  if (!group_level_.trivial) return &group_level_;
  for (const auto& [group, level] : instruction_levels_) {
    (void)group;
    if (!level.trivial) return &level;
  }
  return nullptr;
}

linalg::Vector HierarchicalDisassembler::monitor_features(const sim::Trace& trace) const {
  const Level* level = monitor_level();
  if (level == nullptr) {
    throw std::runtime_error("monitor_features: every level is trivial");
  }
  const std::vector<double> prepared = features::FeaturePipeline::preprocess_window(
      trace, level->pipeline.config().per_trace_normalization);
  const std::vector<double>* window[] = {&prepared};
  dsp::CwtBatchWorkspace ws;
  const linalg::Matrix z =
      level->pipeline.transform_prepared_batch(window, level->components, ws);
  return linalg::Vector(z.data().begin(), z.data().end());
}

int HierarchicalDisassembler::classify_group(const sim::Trace& trace,
                                             std::size_t components) const {
  return predict_level(group_level_, trace, components);
}

std::size_t HierarchicalDisassembler::classify_within_group(
    int group, const sim::Trace& trace, std::size_t components) const {
  const auto it = instruction_levels_.find(group);
  if (it == instruction_levels_.end()) {
    throw std::invalid_argument("classify_within_group: group not trained");
  }
  return static_cast<std::size_t>(predict_level(it->second, trace, components));
}

std::uint8_t HierarchicalDisassembler::classify_rd(const sim::Trace& trace,
                                                   std::size_t components) const {
  if (rd_level_ == nullptr) throw std::runtime_error("Rd level not trained");
  return static_cast<std::uint8_t>(predict_level(*rd_level_, trace, components));
}

std::uint8_t HierarchicalDisassembler::classify_rr(const sim::Trace& trace,
                                                   std::size_t components) const {
  if (rr_level_ == nullptr) throw std::runtime_error("Rr level not trained");
  return static_cast<std::uint8_t>(predict_level(*rr_level_, trace, components));
}

void HierarchicalDisassembler::finalize_posterior_support() {
  posterior_classes_.clear();
  for (const auto& [group, level] : instruction_levels_) {
    (void)group;
    if (level.trivial) {
      posterior_classes_.push_back(static_cast<std::size_t>(level.only_label));
      continue;
    }
    if (level.classifier == nullptr) continue;
    for (const int label : level.classifier->score_labels()) {
      posterior_classes_.push_back(static_cast<std::size_t>(label));
    }
  }
  std::sort(posterior_classes_.begin(), posterior_classes_.end());
  posterior_classes_.erase(
      std::unique(posterior_classes_.begin(), posterior_classes_.end()),
      posterior_classes_.end());
}

std::vector<Disassembly> HierarchicalDisassembler::classify_windows(
    std::span<const sim::Trace> traces, bool scored) const {
  std::vector<Disassembly> out(traces.size());
  const auto post_index = [this](int label) {
    const auto cls = static_cast<std::size_t>(label);
    const auto it = std::lower_bound(posterior_classes_.begin(),
                                     posterior_classes_.end(), cls);
    if (it == posterior_classes_.end() || *it != cls) {
      throw std::logic_error("classify_scored: class outside posterior support");
    }
    return static_cast<std::size_t>(it - posterior_classes_.begin());
  };

  // The SoA batch primitives want equal-length lanes, so windows bucket by
  // trace length first (one CWT/FFT geometry per bucket).  Every bucket, one
  // window or many, then flows through the lane-vectorized pipeline: batch
  // CWT + fused feature transform + blocked QDA scoring, all of which keep
  // the per-window accumulation order, so a window's result never depends on
  // its batch-mates.  Malformed windows are refused before any level runs.
  std::map<std::size_t, std::vector<std::size_t>> by_length;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (malformed(traces[i])) {
      out[i].verdict = Verdict::kRejected;
      out[i].margin_headroom = -kInf;
      out[i].score_headroom = -kInf;
      continue;
    }
    by_length[traces[i].samples.size()].push_back(i);
  }

  dsp::CwtBatchWorkspace ws;  // grow-once scratch for every bucket
  std::vector<double> soa_raw, soa_norm, soa_subset;
  for (const auto& [length, idx] : by_length) {
    const std::size_t n = idx.size();
    soa_raw.clear();
    soa_norm.clear();

    // The lanes `subset` of this bucket as one struct-of-arrays block.  The
    // whole bucket marshals once per view kind (raw, or per-trace normalized
    // when the level's pipeline asks for it), lazily; the up-to-four level
    // pipelines read it in place, and levels running on part of the bucket
    // gather just their lanes from it (row-contiguous copies).
    const auto lanes = [&](const Level& level, std::span<const std::size_t> subset)
        -> std::span<const double> {
      const bool normalize = level.pipeline.config().per_trace_normalization;
      std::vector<double>& soa = normalize ? soa_norm : soa_raw;
      if (soa.empty()) {
        std::vector<const std::vector<double>*> ptrs(n);
        std::vector<std::vector<double>> normalized(normalize ? n : 0);
        for (std::size_t p = 0; p < n; ++p) {
          const sim::Trace& t = traces[idx[p]];
          if (normalize) {
            normalized[p] = features::FeaturePipeline::preprocess_window(t, true);
          }
          ptrs[p] = normalize ? &normalized[p] : &t.samples;
        }
        dsp::Cwt::marshal({ptrs.data(), ptrs.size()}, soa);
      }
      const std::size_t m = subset.size();
      if (m == n) return soa;
      soa_subset.resize(length * m);
      for (std::size_t t = 0; t < length; ++t) {
        const double* __restrict src = soa.data() + t * n;
        double* __restrict dst = soa_subset.data() + t * m;
        for (std::size_t i = 0; i < m; ++i) dst[i] = src[subset[i]];
      }
      return soa_subset;
    };

    // One level over `subset`: a scored prediction per lane and, when the
    // posterior is wanted and the level has a score surface, the per-lane
    // log-softmax of that surface.  Trivial and hard-decision levels (SVM
    // votes, kNN) leave it empty: a one-hot factor at their prediction.
    const auto run = [&](const Level& level, std::span<const std::size_t> subset,
                         bool posterior) {
      LevelRun r;
      const std::size_t m = subset.size();
      if (level.trivial) {
        r.pred.assign(m, ml::ScoredPrediction{level.only_label, kInf, kInf});
        return r;
      }
      if (level.classifier == nullptr) throw std::runtime_error("level not trained");
      const linalg::Matrix feats = level.pipeline.transform_soa_batch(
          lanes(level, subset), length, m, level.components, ws);
      const std::vector<int>& labels = level.classifier->score_labels();
      if (!posterior || labels.empty()) {
        r.pred = level.classifier->predict_scored_batch(feats);
        return r;
      }
      const linalg::Matrix s = level.classifier->class_scores_batch(feats);
      r.pred.resize(m);
      r.logp = linalg::Matrix(s.rows(), m);
      linalg::Vector col(s.rows());
      for (std::size_t p = 0; p < m; ++p) {
        for (std::size_t c = 0; c < s.rows(); ++c) col[c] = s(c, p);
        r.pred[p] = ml::scored_from_scores(col, labels);
        const linalg::Vector lp = log_softmax(col);
        for (std::size_t c = 0; c < s.rows(); ++c) r.logp(c, p) = lp[c];
      }
      return r;
    };

    // Level 1: one batch over the whole bucket.
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    const LevelRun g = run(group_level_, all, scored);
    for (std::size_t p = 0; p < n; ++p) {
      Disassembly& o = out[idx[p]];
      o.group = g.pred[p].label;
      fold_gate(o, group_level_.gate, g.pred[p], /*fatal=*/true);
      if (!instruction_levels_.contains(o.group)) {
        throw std::invalid_argument("classify_within_group: group not trained");
      }
      if (scored) o.log_posterior.assign(posterior_classes_.size(), -kInf);
    }
    // log P(group | x) of lane p.
    const auto group_log = [&](std::size_t p, int group) {
      if (g.logp.rows() == 0) return group == out[idx[p]].group ? 0.0 : -kInf;
      const std::vector<int>& labels = group_level_.classifier->score_labels();
      for (std::size_t c = 0; c < labels.size(); ++c) {
        if (labels[c] == group) return g.logp(c, p);
      }
      return -kInf;
    };

    // Level 2, one batch per trained group.  Plain: over the lanes predicted
    // into that group.  Scored: over every lane, so the posterior keeps
    // honest mass outside the predicted group, log P(class | x) =
    // log P(group | x) + log P(class | group, x); only the predicted group's
    // prediction sets the class and feeds the gate.
    for (const auto& [group, level] : instruction_levels_) {
      std::vector<std::size_t> subset;
      for (std::size_t p = 0; p < n; ++p) {
        if (scored || out[idx[p]].group == group) subset.push_back(p);
      }
      if (subset.empty()) continue;
      const LevelRun c = run(level, subset, scored);
      std::vector<std::size_t> post(c.logp.rows());
      for (std::size_t k = 0; k < post.size(); ++k) {
        post[k] = post_index(level.classifier->score_labels()[k]);
      }
      for (std::size_t i = 0; i < subset.size(); ++i) {
        Disassembly& o = out[idx[subset[i]]];
        if (o.group == group) {
          o.class_idx = static_cast<std::size_t>(c.pred[i].label);
          fold_gate(o, level.gate, c.pred[i], /*fatal=*/true);
        }
        if (!scored) continue;
        const double g_lp = group_log(subset[i], group);
        if (post.empty()) o.log_posterior[post_index(c.pred[i].label)] = g_lp;
        for (std::size_t k = 0; k < post.size(); ++k) {
          o.log_posterior[post[k]] = g_lp + c.logp(k, i);
        }
      }
    }

    // Level 3: operand recovery over the lanes whose class uses each operand
    // (operand posteriors are out of scope).
    for (const bool rd : {true, false}) {
      const Level* level = rd ? rd_level_.get() : rr_level_.get();
      if (level == nullptr) continue;
      std::vector<std::size_t> subset;
      for (std::size_t p = 0; p < n; ++p) {
        const std::size_t class_idx = out[idx[p]].class_idx;
        if (rd ? avr::class_uses_rd(class_idx) : avr::class_uses_rr(class_idx)) {
          subset.push_back(p);
        }
      }
      if (subset.empty()) continue;
      const LevelRun r = run(*level, subset, /*posterior=*/false);
      for (std::size_t i = 0; i < subset.size(); ++i) {
        Disassembly& o = out[idx[subset[i]]];
        (rd ? o.rd : o.rr) = static_cast<std::uint8_t>(r.pred[i].label);
        fold_gate(o, level->gate, r.pred[i], /*fatal=*/false);
      }
    }
  }
  return out;
}

}  // namespace sidis::core
