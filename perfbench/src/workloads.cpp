#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>

#include <pthread.h>
#include <sched.h>

#include "avr/grouping.hpp"
#include "runtime/fleet.hpp"
#include "runtime/streaming.hpp"

namespace perfbench {

using namespace sidis;

namespace {

// -- workload constants ------------------------------------------------------
// fleet_open: a few hundred device streams, each decoded under the firmware
// prior with lag kDecodeLag and drift-monitored.
constexpr std::size_t kFleetStreams = 200;
/// Windows/s of the latency phase.  At 1000/s, with the shared host's CPUs
/// slowed by a competing load, p50 tripled (0.8 -> 2.3-2.5 ms): the fleet
/// sat near its knee.  At 500/s it held 0.86-1.02 ms under the same load.
constexpr double kFleetNominalRate = 500.0;
/// Share of --seconds the fleet's nominal slices run in total.
constexpr double kNominalShare = 0.6;
/// Fixed absolute ladder for sustained_wps (windows/s), about 12 % apart.
/// The nominal phase is the rung below the first.
const std::vector<double> kFleetLadder = {2400, 2700, 3000, 3400, 3800, 4300, 4800,
                                          5400, 6000, 6700, 7500, 8400, 9400, 10500};
/// Share of --seconds each ladder rung runs.
constexpr double kRungShare = 0.08;
// probe_paired: one device at a low rate, one window per submit.
constexpr double kProbeNominalRate = 500.0;
/// Share of each probe slice spent submitting back to back (sustained_wps).
constexpr double kSaturationShare = 0.2;
/// Fresh single-worker engines per saturation slice.
constexpr std::size_t kSaturationBursts = 4;
// firmware_offline: closed-loop classify_batch over the captured image.
constexpr std::size_t kFirmwareWindows = 4096;
constexpr std::size_t kOfflineBatch = 64;
constexpr std::size_t kServeWindows = 2048;  ///< image size of the serving workloads
/// The profiling campaign is the device's profile: the same corpus in every
/// run, so every run serves the same trained system.  The run seed draws
/// the workload: firmware image, arrival schedule, stream offsets, samples.
constexpr std::uint64_t kProfileSeed = 0x5eed0f11e;
/// Windows compared batch-vs-scalar for the bit-identity gate.
constexpr std::size_t kIdentitySample = 24;
/// Generator lateness p99 (while free to send) above which a phase is
/// invalid.  Wake-up hiccups of a few ms occur on shared virtual CPUs; the
/// latency they add is already counted, because latency runs from the due
/// time.  Beyond a fifth of the 50 ms p99 limit the schedule itself is lost.
constexpr double kMaxOwnLatenessP99Ms = 10.0;
/// Limit on latency_p99_ms a sustained_wps ladder rung must meet.
constexpr double kP99LimitMs = 50.0;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 2;
/// Correctness floors on delivered-class accuracy.
constexpr double kFleetAccuracyFloor = 0.85;
constexpr double kFirmwareAccuracyFloor = 0.85;
constexpr double kProbeAccuracyFloor = 0.90;

using runtime::FleetFrontend;
using runtime::StreamingDisassembler;

bool in_spread(std::uint8_t reg) {
  const auto& s = register_spread();
  return std::find(s.begin(), s.end(), reg) != s.end();
}

void score(const core::Disassembly& d, const sim::Trace& w, std::size_t truth,
           OpenLoop& s) {
  ++s.class_total;
  if (d.class_idx == truth) ++s.class_hits;
  if (avr::class_uses_rd(truth) && in_spread(w.meta.instr.rd)) {
    ++s.operand_total;
    if (d.rd && *d.rd == w.meta.instr.rd) ++s.operand_hits;
  }
  if (avr::class_uses_rr(truth) && in_spread(w.meta.instr.rr)) {
    ++s.operand_total;
    if (d.rr && *d.rr == w.meta.instr.rr) ++s.operand_hits;
  }
  if (d.verdict == core::Verdict::kRejected) ++s.rejected_verdicts;
  if (d.verdict == core::Verdict::kDegraded) ++s.degraded_verdicts;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Field-by-field bitwise equality of two results, posterior included.
bool identical(const core::Disassembly& a, const core::Disassembly& b) {
  if (a.group != b.group || a.class_idx != b.class_idx || a.rd != b.rd ||
      a.rr != b.rr || a.verdict != b.verdict ||
      !same_bits(a.margin_headroom, b.margin_headroom) ||
      !same_bits(a.score_headroom, b.score_headroom) ||
      a.log_posterior.size() != b.log_posterior.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.log_posterior.size(); ++i) {
    if (!same_bits(a.log_posterior[i], b.log_posterior[i])) return false;
  }
  return true;
}

/// Seeded sample of window indices (distinct, ascending).
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k, std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(idx.begin(), idx.end(), rng);
  idx.resize(std::min(k, n));
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Poisson arrivals at `rate` over [0, seconds), conditioned on their
/// expected count: that many uniform instants, sorted.  Fixing the count
/// keeps the offered load identical across seeds while the gaps stay
/// exponential-like and bursty.
std::vector<double> poisson_schedule(double rate, double seconds, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> when(0.0, seconds);
  std::vector<double> at(static_cast<std::size_t>(std::llround(rate * seconds)));
  for (double& t : at) t = when(rng);
  std::sort(at.begin(), at.end());
  return at;
}

/// Sleeps, then spins, until `due` (the schedule never waits for the system).
void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(100);
  if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) std::this_thread::yield();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

runtime::StreamOptions fleet_stream_options(const Served& sys) {
  runtime::StreamOptions so;
  so.monitor_drift = true;
  so.decode_sequence = true;
  so.decode.lag = kDecodeLag;
  so.decode_prior = sys.prior;
  return so;
}

runtime::FleetConfig fleet_config() {
  runtime::FleetConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = serving_workers();
  cfg.batch_max = 16;
  cfg.stream_credit = 64;
  cfg.admission = runtime::AdmissionPolicy::kRejectNew;
  return cfg;
}

/// One delivered result, as the consumer saw it.
struct Delivery {
  std::uint64_t sequence = 0;
  Clock::time_point at;
  core::Disassembly value;
  bool via_close = false;
  Clock::time_point close_start;
};

/// One admitted window, as the generator sent it.
struct Arrival {
  std::uint64_t sequence = 0;
  Clock::time_point due;
  std::size_t window = 0;
};

/// A FleetFrontend with `streams` decoded + drift-monitored streams that
/// stays open across several open-loop slices, so the decoder tails (the
/// last lag windows of each stream, flushed by close_stream) are paid once.
/// Each run() is one slice: Poisson arrivals from the generator (calling
/// thread) and one consumer thread polling every stream.
class FleetSession {
 public:
  FleetSession(const Served& sys, std::size_t streams, std::uint64_t seed);

  void run(double rate, double seconds, std::uint64_t seed, Tracer& tracer);
  /// Closes every stream and scores all slices.
  OpenLoop finish(Tracer& tracer);

 private:
  Served sys_;  ///< shares the model, prior and image
  std::unique_ptr<FleetFrontend> fleet_;
  std::vector<std::uint64_t> ids_;
  std::vector<std::size_t> offset_;
  std::vector<std::uint64_t> sent_;
  std::vector<std::vector<Arrival>> arrivals_;
  std::vector<std::vector<Delivery>> deliveries_;
  std::uint64_t accepted_ = 0;
  std::uint64_t polled_ = 0;
  std::uint64_t lattice_held_ = 0;
  OpenLoop out_;
};

/// Per-window latency reference of decoded streams: the due time of the
/// window `lag` places later (the decoder cannot commit before it arrives),
/// or close_stream's start for the stream tail.
void fleet_latencies(const std::vector<Arrival>& arrivals,
                     const std::vector<Delivery>& deliveries, OpenLoop& out) {
  std::size_t pos = 0;
  for (const Delivery& d : deliveries) {
    while (pos < arrivals.size() && arrivals[pos].sequence < d.sequence) ++pos;
    if (pos == arrivals.size() || arrivals[pos].sequence != d.sequence) {
      out.fifo_ok = false;
      continue;
    }
    Clock::time_point ref;
    if (pos + kDecodeLag < arrivals.size()) {
      ref = arrivals[pos + kDecodeLag].due;
    } else if (d.via_close) {
      ref = std::max(d.close_start, arrivals.back().due);
    } else {
      ref = arrivals.back().due;
    }
    out.latency_ms.push_back(std::max(0.0, ms_between(ref, d.at)));
  }
}

}  // namespace

std::size_t serving_workers() {
  const std::size_t cpus = cpu_budget();
  return cpus > 3 ? cpus - 2 : 1;
}

FleetSession::FleetSession(const Served& sys, std::size_t streams, std::uint64_t seed)
    : sys_(sys),
      fleet_(std::make_unique<FleetFrontend>(sys.model, fleet_config())),
      offset_(streams),
      sent_(streams, 0),
      arrivals_(streams),
      deliveries_(streams) {
  for (std::size_t s = 0; s < streams; ++s) {
    ids_.push_back(fleet_->open_stream(fleet_stream_options(sys)));
    offset_[s] = mix_seed(seed, 0x5000 + s) % sys.firmware->windows.size();
  }
}

void FleetSession::run(double rate, double seconds, std::uint64_t seed, Tracer& tracer) {
  const sim::TraceSet& pool = sys_.firmware->windows;
  const std::size_t streams = ids_.size();
  out_.rate = rate;
  std::mt19937_64 rng(mix_seed(seed, 0xa11));
  const std::vector<double> at = poisson_schedule(rate, seconds, rng);
  std::vector<std::size_t> who(at.size());
  for (std::size_t& s : who) s = rng() % streams;

  std::atomic<std::uint64_t> accepted{accepted_}, polled{polled_};
  std::atomic<bool> generator_done{false};
  const std::int64_t root = tracer.begin("workload.fleet_phase");
  std::thread consumer([&] {
    Clock::time_point last_progress = Clock::now();
    std::uint64_t calls = 0;
    for (;;) {
      bool any = false;
      for (std::size_t s = 0; s < streams; ++s) {
        for (;;) {
          const Clock::time_point c0 = Clock::now();
          std::optional<runtime::FleetResult> r = fleet_->poll(ids_[s]);
          const Clock::time_point c1 = Clock::now();
          if ((++calls & 15) == 0 || r) {
            out_.poll_us.push_back(std::chrono::duration<double, std::micro>(c1 - c0).count());
          }
          if (!r) break;
          tracer.record("runtime.fleet.poll", c0, c1, r->stream_sequence, root);
          deliveries_[s].push_back({r->stream_sequence, c1, std::move(r->value), false, {}});
          polled.fetch_add(1, std::memory_order_relaxed);
          any = true;
        }
      }
      const Clock::time_point now = Clock::now();
      if (any) {
        last_progress = now;
        continue;
      }
      // Every window not held inside a decoder lattice has come back, or
      // nothing has moved for a while.  lattice_held_ is the generator's;
      // it is read only once generator_done is set.
      if (generator_done.load() && (polled.load() + lattice_held_ >= accepted.load() ||
                                    now - last_progress > std::chrono::milliseconds(50))) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Outstanding windows beyond the lattice-held ones.
  const auto backlog = [&] {
    return static_cast<double>(accepted.load()) - static_cast<double>(polled.load()) -
           static_cast<double>(lattice_held_);
  };
  double backlog_mid = 0.0;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point prev_end = t0;
  for (std::size_t k = 0; k < at.size(); ++k) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(at[k]));
    wait_until(due);
    const Clock::time_point start = Clock::now();
    out_.own_late_ms.push_back(std::max(0.0, ms_between(std::max(due, prev_end), start)));
    const std::size_t s = who[k];
    const std::size_t w = (offset_[s] + sent_[s]) % pool.size();
    sim::Trace copy = pool[w];
    const Clock::time_point c0 = Clock::now();
    const runtime::AdmitResult res = fleet_->submit(ids_[s], std::move(copy));
    const Clock::time_point c1 = Clock::now();
    tracer.record("runtime.intake.copy", start, c0, w, root);
    tracer.record("runtime.fleet.submit", c0, c1, w, root);
    out_.copy_ns.push_back(std::chrono::duration<double, std::nano>(c0 - start).count());
    out_.submit_us.push_back(std::chrono::duration<double, std::micro>(c1 - c0).count());
    prev_end = c1;
    ++out_.offered;
    if (res.accepted()) {
      arrivals_[s].push_back({res.stream_sequence, due, w});
      if (++sent_[s] <= kDecodeLag) ++lattice_held_;
      accepted.fetch_add(1);
    } else {
      ++out_.rejected;
    }
    if (k == at.size() / 2) backlog_mid = backlog();
  }
  out_.backlog_growth = std::max(out_.backlog_growth, backlog() - backlog_mid);
  generator_done.store(true);
  consumer.join();
  tracer.end(root);
  accepted_ = accepted.load();
  polled_ = polled.load();
  Clock::time_point last = t0;
  for (const auto& ds : deliveries_) {
    if (!ds.empty()) last = std::max(last, ds.back().at);
  }
  out_.wall_s += std::max(seconds, seconds_between(t0, last));
}

OpenLoop FleetSession::finish(Tracer& tracer) {
  const sim::TraceSet& pool = sys_.firmware->windows;
  const std::int64_t root = tracer.begin("workload.fleet_close");
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    const Clock::time_point c0 = Clock::now();
    std::vector<runtime::FleetResult> tail = fleet_->close_stream(ids_[s]);
    const Clock::time_point c1 = Clock::now();
    tracer.record("runtime.fleet.close", c0, c1, Tracer::kNoWindow, root);
    for (runtime::FleetResult& r : tail) {
      deliveries_[s].push_back({r.stream_sequence, c1, std::move(r.value), true, c0});
    }
  }
  tracer.end(root);

  OpenLoop out = std::move(out_);
  for (std::size_t s = 0; s < ids_.size(); ++s) {
    std::uint64_t prev = 0;
    bool first = true;
    for (const Delivery& d : deliveries_[s]) {
      if (!first && d.sequence <= prev) out.fifo_ok = false;
      prev = d.sequence;
      first = false;
    }
    fleet_latencies(arrivals_[s], deliveries_[s], out);
    out.delivered += deliveries_[s].size();
    std::size_t pos = 0;
    for (const Delivery& d : deliveries_[s]) {
      while (pos < arrivals_[s].size() && arrivals_[s][pos].sequence < d.sequence) ++pos;
      if (pos < arrivals_[s].size() && arrivals_[s][pos].sequence == d.sequence) {
        const std::size_t w = arrivals_[s][pos].window;
        score(d.value, pool[w], sys_.firmware->truth[w], out);
      }
    }
  }
  const runtime::FleetStats st = fleet_->stats();
  out.shed = st.windows_shed;
  out.accepted = accepted_;
  out.ledger_ok = st.windows_admitted == st.windows_delivered + st.windows_shed &&
                  st.windows_admitted == out.accepted && out.delivered == out.accepted;
  out.engine = st.runtime;
  out.engine_workers = static_cast<double>(st.runtime.workers);
  return out;
}

OpenLoop run_fleet_phase(const Served& sys, double rate, double seconds,
                         std::size_t streams, std::uint64_t seed, Tracer& tracer) {
  FleetSession session(sys, streams, seed);
  session.run(rate, seconds, seed, tracer);
  return session.finish(tracer);
}

OpenLoop run_engine_phase(const Served& sys, double rate, double seconds,
                          std::uint64_t seed, Tracer& tracer) {
  OpenLoop out;
  out.rate = rate;
  const sim::TraceSet& pool = sys.firmware->windows;
  runtime::StreamingConfig scfg;
  scfg.workers = serving_workers();
  StreamingDisassembler engine(sys.fused ? StreamingDisassembler::make_fused_stage(sys.fused)
                                         : StreamingDisassembler::make_stage(sys.model),
                               scfg);

  std::mt19937_64 rng(mix_seed(seed, 0xe11));
  const std::vector<double> at = poisson_schedule(rate, seconds, rng);
  const std::size_t first = rng() % pool.size();
  std::vector<Clock::time_point> due_of(at.size());
  std::vector<std::size_t> window_of(at.size());
  std::vector<Delivery> deliveries;
  deliveries.reserve(at.size());
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<bool> generator_done{false};

  const std::int64_t root = tracer.begin("workload.engine_phase");
  std::thread consumer([&] {
    for (;;) {
      const Clock::time_point c0 = Clock::now();
      std::optional<runtime::StreamResult> r = engine.poll();
      const Clock::time_point c1 = Clock::now();
      if (r) {
        tracer.record("runtime.engine.poll", c0, c1, r->sequence, root);
        out.poll_us.push_back(std::chrono::duration<double, std::micro>(c1 - c0).count());
        deliveries.push_back({r->sequence, c1, std::move(r->value), false, {}});
        continue;
      }
      if (generator_done.load() && deliveries.size() >= submitted.load()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point prev_end = t0;
  for (std::size_t k = 0; k < at.size(); ++k) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(at[k]));
    wait_until(due);
    const Clock::time_point start = Clock::now();
    out.own_late_ms.push_back(std::max(0.0, ms_between(std::max(due, prev_end), start)));
    const std::size_t w = (first + k) % pool.size();
    sim::Trace copy = pool[w];
    const Clock::time_point c0 = Clock::now();
    const std::optional<std::uint64_t> seq = engine.submit(std::move(copy));
    const Clock::time_point c1 = Clock::now();
    tracer.record("runtime.intake.copy", start, c0, w, root);
    tracer.record("runtime.engine.submit", c0, c1, w, root);
    out.copy_ns.push_back(std::chrono::duration<double, std::nano>(c0 - start).count());
    out.submit_us.push_back(std::chrono::duration<double, std::micro>(c1 - c0).count());
    prev_end = c1;
    ++out.offered;
    if (!seq || *seq != k) {
      out.fifo_ok = false;
      ++out.rejected;
      continue;
    }
    due_of[k] = due;
    window_of[k] = w;
    submitted.fetch_add(1);
  }
  generator_done.store(true);
  consumer.join();
  tracer.end(root);
  out.wall_s = std::max(seconds, deliveries.empty() ? 0.0 : seconds_between(t0, deliveries.back().at));

  out.accepted = submitted.load();
  out.delivered = deliveries.size();
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    const Delivery& d = deliveries[i];
    if (d.sequence != i) {
      out.fifo_ok = false;
      continue;
    }
    out.latency_ms.push_back(std::max(0.0, ms_between(due_of[i], d.at)));
    const std::size_t w = window_of[i];
    score(d.value, pool[w], sys.firmware->truth[w], out);
  }
  out.engine = engine.stats();
  out.engine_workers = static_cast<double>(engine.workers());
  out.ledger_ok = out.delivered == out.accepted;
  return out;
}

namespace {

/// Saturation phase of the single-window engine: the generator submits one
/// window per call, back to back (submit blocks while the engine's
/// in-flight credit is spent), and one consumer polls.  Every window pays
/// the handoff, the stage and the reorder, so delivered / wall is the
/// engine's capacity for single-window submits.  The engine runs one
/// worker: two busy workers ran up to twice as slow per window in some runs
/// as in others on a shared virtual machine, one worker did not.  The
/// phase is cut into bursts of `seconds / kSaturationBursts`, each on a
/// fresh engine, so the worker is placed anew on every burst.
OpenLoop run_engine_saturation(const Served& sys, double seconds, std::uint64_t seed) {
  OpenLoop out;
  const sim::TraceSet& pool = sys.firmware->windows;
  std::size_t next = mix_seed(seed, 0x5a7) % pool.size();
  const auto burst_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kSaturationBursts));
  for (std::size_t b = 0; b < kSaturationBursts; ++b) {
    runtime::StreamingConfig scfg;
    scfg.workers = 1;
    StreamingDisassembler engine(sys.fused ? StreamingDisassembler::make_fused_stage(sys.fused)
                                           : StreamingDisassembler::make_stage(sys.model),
                                 scfg);
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<bool> generator_done{false};
    std::uint64_t delivered = 0;
    Clock::time_point last;
    std::thread consumer([&] {
      for (;;) {
        std::optional<runtime::StreamResult> r = engine.poll();
        if (r) {
          if (r->sequence != delivered) out.fifo_ok = false;
          ++delivered;
          last = Clock::now();
          continue;
        }
        if (generator_done.load() && delivered >= submitted.load()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    const Clock::time_point t0 = Clock::now();
    while (Clock::now() < t0 + burst_len) {
      sim::Trace copy = pool[next++ % pool.size()];
      ++out.offered;
      if (engine.submit(std::move(copy))) {
        submitted.fetch_add(1);
      } else {
        ++out.rejected;
      }
    }
    generator_done.store(true);
    consumer.join();
    out.accepted += submitted.load();
    out.delivered += delivered;
    if (delivered > 0) out.wall_s += seconds_between(t0, last);
  }
  out.ledger_ok = out.delivered == out.accepted;
  return out;
}

/// Rung outcome: p99 within the limit, nothing refused, backlog flat.
bool rung_passes(const OpenLoop& r) {
  if (r.latency_ms.empty() || r.rejected != 0 || r.shed != 0 || !r.ledger_ok) return false;
  const double p99 = summarize(r.latency_ms).p99;
  const double flat = r.rate * kP99LimitMs / 1e3;
  return p99 <= kP99LimitMs && r.backlog_growth <= flat;
}

double rung_p99(const OpenLoop& r) {
  return r.latency_ms.empty() ? kP99LimitMs * 10 : summarize(r.latency_ms).p99;
}

/// Highest ladder rate that passes, interpolated on p99 toward the next
/// rung so the figure moves continuously between rungs.  A failing rung is
/// run once more and fails only if both attempts do: on a shared host a
/// stall longer than the p99 limit fails a rung far below the knee.  The
/// climb ends at two consecutive failing rungs.
template <typename RunRung>
double climb_ladder(const OpenLoop& nominal, const std::vector<double>& ladder,
                    RunResult& out, RunRung&& run_rung) {
  if (!rung_passes(nominal)) {
    // Below the ladder: scale the nominal rate down by its p99 overshoot.
    return nominal.rate * std::min(1.0, kP99LimitMs / std::max(rung_p99(nominal), 1e-9)) *
           static_cast<double>(nominal.delivered) / std::max<double>(1.0, nominal.offered);
  }
  double best = nominal.rate;
  double best_p99 = rung_p99(nominal);
  double next_rate = 0.0, next_p99 = 0.0;  ///< first failing rung above `best`
  std::size_t rungs = 0, failed_in_row = 0;
  for (double rate : ladder) {
    OpenLoop r = run_rung(rate);
    ++rungs;
    if (!rung_passes(r)) {
      OpenLoop again = run_rung(rate);
      ++rungs;
      if (rung_passes(again) || rung_p99(again) < rung_p99(r)) r = std::move(again);
    }
    const double p99 = rung_p99(r);
    out.details["ladder." + std::to_string(static_cast<int>(rate)) + ".p99_ms"] = p99;
    if (rung_passes(r)) {
      best = rate;
      best_p99 = p99;
      next_rate = 0.0;
      failed_in_row = 0;
      continue;
    }
    if (failed_in_row++ == 0) {
      next_rate = rate;
      // A rung failed by refusals or backlog growth gives no p99 to
      // interpolate on: count it as far over the limit.
      next_p99 = r.rejected == 0 && r.shed == 0 && p99 > kP99LimitMs ? p99 : kP99LimitMs * 10;
    }
    if (failed_in_row == 2) break;
  }
  out.details["ladder.rungs_run"] = static_cast<double>(rungs);
  if (next_rate > 0.0 && next_p99 > best_p99) {
    const double f = (kP99LimitMs - best_p99) / (next_p99 - best_p99);
    best += std::clamp(f, 0.0, 1.0) * (next_rate - best);
  }
  return best;
}

/// Exact quantiles of the raw samples: p50 is bounded end to end; p99 is
/// reported unbounded (see perfbench/README.md, "Why p99 has no bound").
void report_latency(const Quantiles& lat, RunResult& out) {
  out.e2e("latency_p50_ms", lat.p50, "ms");
  out.layer("latency_p99_ms", lat.p99, "ms");
  out.details["latency.p99_ms"] = lat.p99;
  out.details["latency.samples"] = static_cast<double>(lat.count);
  out.details["latency.trusted_percentile"] = lat.trusted_percentile;
  out.details["latency.max_ms"] = lat.max;
}

/// Bookkeeping every open-loop workload reports from its nominal phase.
void report_open_loop(const OpenLoop& r, RunResult& out) {
  report_latency(summarize(r.latency_ms), out);
  out.e2e("throughput_wps", static_cast<double>(r.delivered) / r.wall_s, "1/s");
  out.e2e("accuracy", r.class_total ? double(r.class_hits) / double(r.class_total) : 0.0, "frac");
  out.e2e("operand_accuracy",
          r.operand_total ? double(r.operand_hits) / double(r.operand_total) : 0.0, "frac");
  out.e2e("delivered_frac", r.offered ? double(r.delivered) / double(r.offered) : 0.0, "frac");
  out.attempted = r.offered;
  out.failed = r.offered - std::min(r.offered, r.delivered);
  out.check(r.fifo_ok, "per-stream delivery out of FIFO order");
  out.check(r.ledger_ok, "admission ledger does not close (admitted != delivered + shed)");
  const Quantiles late = summarize(r.own_late_ms);
  if (late.p99 > kMaxOwnLatenessP99Ms) {
    out.invalid = "generator fell behind its schedule (own lateness p99 " +
                  std::to_string(late.p99) + " ms)";
  }
  out.layer("gen.lateness_p99_ms", late.p99, "ms");
  out.layer("core.rejected_frac",
            r.class_total ? double(r.rejected_verdicts) / double(r.class_total) : 0.0, "frac");
  out.layer("core.degraded_frac",
            r.class_total ? double(r.degraded_verdicts) / double(r.class_total) : 0.0, "frac");
}

void report_setup(const std::vector<SetupTimes>& reps, RunResult& out) {
  const auto med = [&](double SetupTimes::*phase) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*phase);
    return median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : reps) totals.push_back(t.total());
  out.e2e("setup_s", median(totals), "s");
  out.layer("setup.train_s", med(&SetupTimes::train_s), "s");
  out.layer("setup.calibrate_s", med(&SetupTimes::calibrate_s), "s");
  out.layer("setup.fusion_s", med(&SetupTimes::fusion_s), "s");
  out.layer("setup.serve_ready_s", med(&SetupTimes::serve_ready_s), "s");
  out.details["setup.repeats"] = static_cast<double>(reps.size());
}

/// Repeats `build` kSetupRepeats times and runs one measurement slice
/// after each repetition, on the system it built (training is
/// deterministic, so every repetition serves the same model).  Spreading
/// the measured time across the run samples more of a shared host's speed
/// swings than one block would.  Each repetition is freed before the next
/// is built; the last one is returned.
template <typename Build, typename Slice>
Served repeat_setup(RunResult& out, Build&& build, Slice&& slice) {
  std::vector<SetupTimes> times;
  Served sys;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sys = Served{};
    sys = build();
    times.push_back(sys.setup);
    slice(sys, i, kSetupRepeats);
  }
  report_setup(times, out);
  return sys;
}

/// Pools a measurement slice into the workload's running total.
void absorb(OpenLoop& into, OpenLoop&& from) {
  const auto append = [](std::vector<double>& a, std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  into.rate = from.rate;
  into.wall_s += from.wall_s;
  into.offered += from.offered;
  into.accepted += from.accepted;
  into.rejected += from.rejected;
  into.delivered += from.delivered;
  into.shed += from.shed;
  into.fifo_ok = into.fifo_ok && from.fifo_ok;
  into.ledger_ok = into.ledger_ok && from.ledger_ok;
  into.backlog_growth = std::max(into.backlog_growth, from.backlog_growth);
  append(into.latency_ms, from.latency_ms);
  append(into.own_late_ms, from.own_late_ms);
  append(into.submit_us, from.submit_us);
  append(into.poll_us, from.poll_us);
  append(into.copy_ns, from.copy_ns);
  into.class_total += from.class_total;
  into.class_hits += from.class_hits;
  into.operand_total += from.operand_total;
  into.operand_hits += from.operand_hits;
  into.rejected_verdicts += from.rejected_verdicts;
  into.degraded_verdicts += from.degraded_verdicts;
  into.engine.merge(from.engine);
  into.engine.workers = from.engine.workers;
  into.engine_workers = from.engine_workers;
}

void check_batch_identity(const Served& sys, std::uint64_t seed, bool scored,
                          RunResult& out) {
  const sim::TraceSet& pool = sys.firmware->windows;
  sim::TraceSet sample;
  for (std::size_t i : sample_indices(pool.size(), kIdentitySample, seed)) {
    sample.push_back(pool[i]);
  }
  bool ok = true;
  if (sys.fused) {
    const auto batch = sys.fused->classify_batch(sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      ok = ok && identical(batch[i], sys.fused->classify(sample[i]));
    }
  } else if (scored) {
    const auto batch = sys.model->classify_batch_scored(sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      ok = ok && identical(batch[i], sys.model->classify_scored(sample[i]));
    }
  } else {
    const auto batch = sys.model->classify_batch(sample);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      ok = ok && identical(batch[i], sys.model->classify(sample[i]));
    }
  }
  out.check(ok, "batch results differ from scalar classify on the seeded sample");
}

void check_accuracy(double floor, RunResult& out) {
  const double acc = out.end_to_end.at("accuracy").value;
  out.check(acc >= floor,
            "accuracy " + std::to_string(acc) + " below floor " + std::to_string(floor));
}

// -- fleet_open ----------------------------------------------------------------

RunResult fleet_open(const Options& opt, Tracer& tracer) {
  RunResult out;
  const sim::AcquisitionCampaign campaign = make_campaign(false);
  const Corpus corpus = capture_corpus(campaign, kProfileSeed, cpu_budget());
  const auto fw = std::make_shared<const Firmware>(
      capture_firmware(campaign, mix_seed(opt.seed, 2), kServeWindows, cpu_budget()));

  // Set-up ends with the fleet constructed and every stream open.  The
  // nominal slices share one session built the same way, so its stream
  // tails come back once; ladder rungs build their own.  The session keeps
  // the first repetition's model alive.
  std::unique_ptr<FleetSession> session;
  Served sys = repeat_setup(
      out,
      [&] {
        Served s;
        s.firmware = fw;
        s.model = train_channel(corpus.train, corpus.heldout, s.setup);
        const Clock::time_point t0 = Clock::now();
        s.prior = firmware_prior(fw->truth);
        FleetFrontend fleet(s.model, fleet_config());
        for (std::size_t i = 0; i < kFleetStreams; ++i) {
          fleet.open_stream(fleet_stream_options(s));
        }
        s.setup.serve_ready_s = seconds_since(t0);
        return s;
      },
      [&](const Served& s, int i, int n) {
        if (!session) {
          session = std::make_unique<FleetSession>(s, kFleetStreams, mix_seed(opt.seed, 4));
        }
        session->run(kFleetNominalRate, kNominalShare * opt.seconds / n,
                     mix_seed(opt.seed, 40 + i), tracer);
      });
  const OpenLoop nominal = session->finish(tracer);
  session.reset();

  check_batch_identity(sys, mix_seed(opt.seed, 3), true, out);
  report_open_loop(nominal, out);
  Tracer untraced(false);
  std::uint64_t rung_seed = mix_seed(opt.seed, 5);
  out.e2e("sustained_wps",
          climb_ladder(nominal, kFleetLadder, out,
                       [&](double rate) {
                         return run_fleet_phase(sys, rate, kRungShare * opt.seconds,
                                                kFleetStreams, ++rung_seed, untraced);
                       }),
          "1/s");
  check_accuracy(kFleetAccuracyFloor, out);
  if (opt.trace) probe_layers(sys, corpus, opt, &nominal, nullptr, tracer, out);
  return out;
}

// -- firmware_offline ----------------------------------------------------------

/// Closed-loop state of firmware_offline, carried across its slices.
struct OfflineLoop {
  std::vector<sim::TraceSet> batches;  ///< consecutive slices of the image
  std::vector<core::Disassembly> first_pass;
  std::size_t next_batch = 0;
  std::size_t windows_done = 0;
  std::uint64_t windows = 0;
  double wall_s = 0.0;
  std::vector<double> batch_ms;
  /// Mean classify_batch call time of each complete pass over the image
  /// (summed call times, so a pass that spans a set-up gap stays exact).
  std::vector<double> pass_batch_ms;
  double pass_ms = 0.0;
  OpenLoop tally;
  bool stable = true;
};

/// Moves the calling thread round the CPUs it may use, one step per
/// `period`, and restores its CPU mask on destruction.  The virtual CPUs of
/// a shared host run at different speeds (a busy sibling hyperthread costs
/// a fifth or more); visiting each for equal time keeps a one-thread closed
/// loop from measuring wherever the scheduler happened to leave it.
class CpuRotation {
 public:
  explicit CpuRotation(Clock::duration period) : period_(period), last_(Clock::now()) {
    CPU_ZERO(&original_);
    if (pthread_getaffinity_np(pthread_self(), sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void maybe_advance() {
    if (cpus_.size() < 2 || Clock::now() - last_ < period_) return;
    last_ = Clock::now();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }

 private:
  Clock::duration period_;
  Clock::time_point last_;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Runs whole batches for `seconds` (at least once through the image).
void offline_slice(const Served& sys, double seconds, OfflineLoop& loop, Tracer& tracer) {
  const sim::TraceSet& pool = sys.firmware->windows;
  const std::int64_t root = tracer.begin("workload.firmware_offline");
  CpuRotation rotation(std::chrono::milliseconds(500));
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  while (Clock::now() < end || loop.windows_done < pool.size()) {
    rotation.maybe_advance();
    const std::size_t b = loop.next_batch;
    loop.next_batch = (b + 1) % loop.batches.size();
    const Clock::time_point c0 = Clock::now();
    std::vector<core::Disassembly> res = sys.model->classify_batch(loop.batches[b]);
    const Clock::time_point c1 = Clock::now();
    tracer.record("core.classify_batch", c0, c1, b * kOfflineBatch, root);
    loop.batch_ms.push_back(ms_between(c0, c1));
    loop.pass_ms += loop.batch_ms.back();
    if (loop.next_batch == 0) {
      loop.pass_batch_ms.push_back(loop.pass_ms / static_cast<double>(loop.batches.size()));
      loop.pass_ms = 0.0;
    }
    loop.windows += res.size();
    for (std::size_t i = 0; i < res.size(); ++i) {
      const std::size_t w = b * kOfflineBatch + i;
      if (loop.windows_done < pool.size()) {
        score(res[i], pool[w], sys.firmware->truth[w], loop.tally);
        loop.first_pass[w] = std::move(res[i]);
        ++loop.windows_done;
      } else if (res[i].class_idx != loop.first_pass[w].class_idx ||
                 res[i].verdict != loop.first_pass[w].verdict) {
        loop.stable = false;
      }
    }
  }
  loop.wall_s += seconds_since(t0);
  tracer.end(root);
}

RunResult firmware_offline(const Options& opt, Tracer& tracer) {
  RunResult out;
  const sim::AcquisitionCampaign campaign = make_campaign(false);
  const Corpus corpus = capture_corpus(campaign, kProfileSeed, cpu_budget());
  const auto fw = std::make_shared<const Firmware>(
      capture_firmware(campaign, mix_seed(opt.seed, 2), kFirmwareWindows, cpu_budget()));

  // Batches are consecutive slices of the image, built once so the timed
  // loop copies nothing.
  OfflineLoop loop;
  for (std::size_t b = 0; b < fw->windows.size(); b += kOfflineBatch) {
    loop.batches.emplace_back(
        fw->windows.begin() + static_cast<std::ptrdiff_t>(b),
        fw->windows.begin() +
            static_cast<std::ptrdiff_t>(std::min(fw->windows.size(), b + kOfflineBatch)));
  }
  loop.first_pass.resize(fw->windows.size());
  // Ready to serve once the first batch has run: it builds the lazily
  // cached per-window-length spectral banks.
  Served sys = repeat_setup(
      out,
      [&] {
        Served s;
        s.firmware = fw;
        s.model = train_channel(corpus.train, corpus.heldout, s.setup);
        const Clock::time_point t0 = Clock::now();
        (void)s.model->classify_batch(loop.batches.front());
        s.setup.serve_ready_s = seconds_since(t0);
        return s;
      },
      [&](const Served& s, int, int n) { offline_slice(s, opt.seconds / n, loop, tracer); });
  sys.prior = firmware_prior(fw->truth);
  check_batch_identity(sys, mix_seed(opt.seed, 3), false, out);

  const double wps = static_cast<double>(loop.windows) / loop.wall_s;
  out.e2e("throughput_wps", wps, "1/s");
  // A closed loop sustains exactly its own rate: on this workload
  // sustained_wps repeats throughput_wps and carries nothing of its own.
  out.e2e("sustained_wps", wps, "1/s");
  // The median call over a few seconds depends on which batches of this
  // seed's image sit in the middle of the cost distribution; the median
  // over passes of the per-pass mean call time does not.
  report_latency(summarize(loop.batch_ms), out);
  out.details["latency.call_p50_ms"] = out.end_to_end.at("latency_p50_ms").value;
  out.e2e("latency_p50_ms", median(loop.pass_batch_ms), "ms");
  out.details["latency.passes"] = static_cast<double>(loop.pass_batch_ms.size());
  const OpenLoop& tally = loop.tally;
  out.e2e("accuracy", double(tally.class_hits) / double(tally.class_total), "frac");
  out.e2e("operand_accuracy",
          tally.operand_total ? double(tally.operand_hits) / double(tally.operand_total) : 0.0,
          "frac");
  out.e2e("delivered_frac", 1.0, "frac");
  out.attempted = loop.windows;
  out.failed = 0;
  out.check(loop.stable, "repeated passes over the image disagree");
  check_accuracy(kFirmwareAccuracyFloor, out);
  out.layer("core.rejected_frac", double(tally.rejected_verdicts) / double(tally.class_total), "frac");
  out.layer("core.degraded_frac", double(tally.degraded_verdicts) / double(tally.class_total), "frac");
  if (opt.trace) probe_layers(sys, corpus, opt, nullptr, nullptr, tracer, out);
  return out;
}

// -- probe_paired ----------------------------------------------------------------

RunResult probe_paired(const Options& opt, Tracer& tracer) {
  RunResult out;
  const sim::AcquisitionCampaign campaign = make_campaign(true);
  const Corpus corpus = capture_corpus(campaign, kProfileSeed, cpu_budget());
  const auto fw = std::make_shared<const Firmware>(
      capture_firmware(campaign, mix_seed(opt.seed, 2), kServeWindows, cpu_budget()));

  OpenLoop nominal, saturated;
  Served sys = repeat_setup(
      out,
      [&] {
        Served s;
        s.firmware = fw;
        s.fused = train_fused(corpus, s.setup);
        s.model = s.fused->power_model();
        const Clock::time_point t0 = Clock::now();
        {
          runtime::StreamingConfig scfg;
          scfg.workers = serving_workers();
          StreamingDisassembler engine(StreamingDisassembler::make_fused_stage(s.fused), scfg);
        }
        s.setup.serve_ready_s = seconds_since(t0);
        return s;
      },
      [&](const Served& s, int i, int n) {
        const double slice_s = opt.seconds / n;
        absorb(nominal, run_engine_phase(s, kProbeNominalRate, (1 - kSaturationShare) * slice_s,
                                         mix_seed(opt.seed, 40 + i), tracer));
        absorb(saturated,
               run_engine_saturation(s, kSaturationShare * slice_s, mix_seed(opt.seed, 50 + i)));
      });
  sys.prior = firmware_prior(fw->truth);

  check_batch_identity(sys, mix_seed(opt.seed, 3), false, out);
  report_open_loop(nominal, out);
  // One device at the nominal rate never approaches the engine's capacity,
  // so the capacity comes from the saturation slices instead.
  out.e2e("sustained_wps", static_cast<double>(saturated.delivered) / saturated.wall_s, "1/s");
  out.details["saturation.windows"] = static_cast<double>(saturated.delivered);
  out.check(saturated.fifo_ok && saturated.ledger_ok,
            "saturation phase delivered out of order or lost windows");
  check_accuracy(kProbeAccuracyFloor, out);
  if (opt.trace) probe_layers(sys, corpus, opt, nullptr, &nominal, tracer, out);
  return out;
}

}  // namespace

RunResult run_workload(const Options& opt, Tracer& tracer) {
  RunResult out;
  if (opt.workload == "fleet_open") {
    out = fleet_open(opt, tracer);
  } else if (opt.workload == "firmware_offline") {
    out = firmware_offline(opt, tracer);
  } else if (opt.workload == "probe_paired") {
    out = probe_paired(opt, tracer);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  // Real-time factor of the workload's capacity against one two-cycle window
  // every 125 ns (16 MHz target).
  out.e2e("realtime_x", 1e9 / out.end_to_end.at("sustained_wps").value / 125.0, "x");
  out.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

}  // namespace perfbench
