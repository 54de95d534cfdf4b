// Adversarial ablation — the hostile-sweep detection gate and the retrying
// batched runtime under deterministic fault injection
// (core/fault_injection.hpp).
//
// Sweeps the per-fault injection rate and reports, per rate:
//   * detection rate   fraction of corrupted sweeps (every injected fault
//                      class except kOutage, which is unavailability, not
//                      corruption) the integrity gate rejected on their
//                      first attempt;
//   * false-reject     fraction of CLEAN sweeps the gate wrongly rejected;
//   * recovery         with RetryPolicy{3}: fraction of requests that end
//                      ok, mean attempts consumed, exhaustion count;
//   * residual error   median |distance - truth| over the requests that
//                      survive gate + retries (what corruption costs after
//                      the defenses, vs the clean-rate baseline).
//
// Ground truth comes from FaultInjectingSweepSource::planned_fault on the
// same split streams the batch runtime uses — no side channel, the
// injector's own determinism contract is the bookkeeping.
//
// Modes:
//   --emit-corpus <dir>   write injected corrupted sweeps (truncated,
//                         band-liar, replayed) as phy::csi_io fuzz corpus
//                         seeds and exit;
//   CHRONOS_ADVERSARIAL_FAST=1   default hostile rate only (CI smoke);
//   CHRONOS_ADVERSARIAL_GATE=1   exit non-zero unless the default hostile
//                                rate meets detection >= 0.9 and
//                                false-reject <= 0.05 (the CI floor).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/fault_injection.hpp"
#include "phy/csi_io.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"

namespace {

using namespace chronos;

/// The full US plan with one exchange per band: residual range error is a
/// reported metric, and CRT phase alignment needs the contiguous plan
/// (strided plans cost ~100x in accuracy); one exchange keeps the rate
/// sweep affordable.
sim::LinkSimConfig bench_link() {
  sim::LinkSimConfig c;
  c.exchanges_per_band = 1;
  return c;
}

struct Truth {
  std::vector<RangingRequest> requests;
  std::vector<double> distance_m;
};

constexpr NodeId kCalTx{1};
constexpr NodeId kRx{77};

/// One calibrated card pair (hardware seeds 11/77) swept over a position
/// grid, registered in `source` — ids are decoupled from radio
/// personality, so the a-priori calibration of that pair covers every
/// request and the residual-error metric reflects the gate + retries, not
/// uncalibrated chain delay.
Truth make_requests(core::SimSweepSource& source, std::size_t n) {
  Truth t;
  const geom::Vec2 rx_pos{12.0, 9.0};
  source.add_node(kCalTx, sim::make_mobile({0.0, 0.0}, 11));
  source.add_node(kRx, sim::make_mobile(rx_pos, 77));
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 2.0 + 0.8 * static_cast<double>(i % 11);
    const double y = 2.0 + 0.6 * static_cast<double>(i % 7);
    const NodeId tx{1000 + i};
    source.add_node(tx, sim::make_mobile({x, y}, 11));
    t.requests.push_back({{tx, 0}, {kRx, 0}});
    t.distance_m.push_back(geom::distance({x, y}, rx_pos));
  }
  return t;
}

/// --emit-corpus: three corrupted sweeps, saved through phy::csi_io so the
/// read_sweep fuzz harness (tests/fuzz) seeds from realistic adversarial
/// inputs, not only hand-damaged text. A tiny 2-band plan keeps the seeds
/// within the fuzzer's max_len.
int emit_corpus(const std::string& dir) {
  sim::LinkSimConfig c;
  const auto& plan = phy::us_band_plan();
  c.bands = {plan[0], plan[5]};
  c.exchanges_per_band = 1;
  const core::SimSweepSource source(sim::office_20x20(), c);

  const core::ResolvedRequest req{sim::make_mobile({3.0, 3.0}, 11), 0,
                                  sim::make_mobile({8.0, 6.0}, 22), 0};
  core::FaultProfile profile;
  profile.truncate_fraction = 0.5;
  profile.band_lies = 1;
  const struct {
    core::FaultKind kind;
    const char* name;
  } seeds[] = {
      {core::FaultKind::kTruncated, "injected_truncated.csi"},
      {core::FaultKind::kBandLiar, "injected_band_liar.csi"},
      {core::FaultKind::kReplayed, "injected_replayed.csi"},
  };
  for (const auto& seed : seeds) {
    mathx::Rng rng(99);
    auto sweep = source.sweep_for(req, rng);
    if (!sweep.ok()) {
      std::fprintf(stderr, "corpus sweep failed: %s\n",
                   sweep.status().to_string().c_str());
      return 1;
    }
    mathx::Rng fault_stream = rng.split(core::kFaultStreamTag);
    const auto corrupted = core::apply_fault(
        seed.kind, std::move(sweep).value(), profile, fault_stream);
    const std::string path = dir + "/" + seed.name;
    phy::save_sweep(path, corrupted);
    std::printf("  wrote %s\n", path.c_str());
  }
  return 0;
}

bool corrupting(core::FaultKind kind) {
  return kind != core::FaultKind::kNone && kind != core::FaultKind::kOutage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--emit-corpus") == 0) {
    return emit_corpus(argv[2]);
  }
  bench::header("ablation-adversarial",
                "fault injection vs detection gate + retries");

  const bool fast = std::getenv("CHRONOS_ADVERSARIAL_FAST") != nullptr;
  const bool ci_gate = std::getenv("CHRONOS_ADVERSARIAL_GATE") != nullptr;
  constexpr double kDefaultRate = 0.1;  // FaultProfile::hostile() default
  const std::vector<double> rates =
      fast ? std::vector<double>{kDefaultRate}
           : std::vector<double>{0.0, 0.05, kDefaultRate, 0.15};
  const std::size_t n_requests = fast ? 48 : 96;

  const auto inner = std::make_shared<core::SimSweepSource>(
      sim::office_20x20(), bench_link());
  const auto truth = make_requests(*inner, n_requests);

  std::printf("  %-8s %-10s %-12s %-10s %-10s %-10s %-12s\n", "rate",
              "detection", "false-rej", "ok-rate", "attempts", "exhausted",
              "resid p50 m");

  double gate_detection = 1.0;
  double gate_false_reject = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
  for (const double rate : rates) {
    const auto injector = std::make_shared<core::FaultInjectingSweepSource>(
        inner, core::FaultProfile::hostile(rate));
    EngineOptions options;
    options.ranging.integrity = core::IntegrityConfig::hostile();
    Engine eng = Engine::adopt(injector, options);
    mathx::Rng cal_rng(5);
    (void)eng.calibrate(kCalTx, kRx, cal_rng);

    // Ground truth: which fault each ticket will suffer, reconstructed
    // from the same fork/split discipline the batch runtime applies.
    mathx::Rng probe(2026);
    const mathx::Rng base = probe.fork(kBatchStreamTag);
    std::vector<core::FaultKind> planned;
    for (std::size_t i = 0; i < n_requests; ++i) {
      planned.push_back(injector->planned_fault(base.split(i)));
    }

    // Pass 1 — single attempt: what does the gate catch?
    mathx::Rng rng_single(2026);
    const auto single =
        eng.measure_batch(truth.requests, rng_single, BatchOptions{4});
    std::size_t corrupted = 0, detected = 0, clean = 0, false_rejects = 0;
    for (std::size_t i = 0; i < n_requests; ++i) {
      const bool rejected = !single.results[i].status.ok();
      if (corrupting(planned[i])) {
        corrupted += 1;
        detected += rejected ? 1 : 0;
      } else if (planned[i] == core::FaultKind::kNone) {
        clean += 1;
        false_rejects += rejected ? 1 : 0;
      }
    }
    const double detection =
        corrupted == 0 ? 1.0
                       : static_cast<double>(detected) /
                             static_cast<double>(corrupted);
    const double false_reject =
        clean == 0 ? 0.0
                   : static_cast<double>(false_rejects) /
                         static_cast<double>(clean);

    // Pass 2 — RetryPolicy{3}: how much does retrying recover?
    BatchOptions retry_opts{4};
    retry_opts.retry = {3};
    mathx::Rng rng_retry(2026);
    const auto retried =
        eng.measure_batch(truth.requests, rng_retry, retry_opts);
    std::size_t ok = 0, exhausted = 0, attempts = 0;
    std::vector<double> errors;
    for (std::size_t i = 0; i < n_requests; ++i) {
      const auto& r = retried.results[i];
      attempts += static_cast<std::size_t>(r.attempts);
      if (r.status.ok()) {
        ok += 1;
        errors.push_back(std::abs(r.distance_m - truth.distance_m[i]));
      } else if (r.status.code() == StatusCode::kRetryExhausted) {
        exhausted += 1;
      }
    }
    const double ok_rate =
        static_cast<double>(ok) / static_cast<double>(n_requests);
    const double mean_attempts =
        static_cast<double>(attempts) / static_cast<double>(n_requests);
    const double resid_p50 =
        errors.empty() ? 0.0 : mathx::median(errors);

    std::printf("  %-8.2f %-10.3f %-12.3f %-10.3f %-10.2f %-10zu %-12.3f\n",
                rate, detection, false_reject, ok_rate, mean_attempts,
                exhausted, resid_p50);

    const std::string tag = std::to_string(static_cast<int>(rate * 100.0));
    metrics.emplace_back("detection_rate_" + tag, detection);
    metrics.emplace_back("false_reject_rate_" + tag, false_reject);
    metrics.emplace_back("ok_rate_" + tag, ok_rate);
    metrics.emplace_back("mean_attempts_" + tag, mean_attempts);
    metrics.emplace_back("resid_p50_m_" + tag, resid_p50);
    if (rate == kDefaultRate) {
      gate_detection = detection;
      gate_false_reject = false_reject;
      metrics.emplace_back("detection_rate", detection);
      metrics.emplace_back("false_reject_rate", false_reject);
    }
  }

  std::printf("\n  CI floor: detection >= 0.90, false-reject <= 0.05 at the "
              "default hostile rate (%.2f/fault)\n", kDefaultRate);
  bench::json_summary("ablation_adversarial", metrics);

  if (ci_gate &&
      (gate_detection < 0.9 || gate_false_reject > 0.05)) {
    std::fprintf(stderr,
                 "ADVERSARIAL GATE FAILED: detection %.3f (floor 0.90), "
                 "false-reject %.3f (ceiling 0.05)\n",
                 gate_detection, gate_false_reject);
    return 1;
  }
  return 0;
}
