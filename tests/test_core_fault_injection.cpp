// The adversarial tier: deterministic fault injection, the hostile-sweep
// detection gate, and bounded retries — and the proof that none of it
// weakens the batched runtime's determinism contract. The load-bearing
// properties:
//   * a zero FaultProfile is bit-identical to the undecorated backend
//     (split never advances its parent stream);
//   * planned_fault() reconstructs per-ticket ground truth, and every
//     injected fault class maps to its documented rejection status;
//   * N worker threads under a hostile profile WITH retries enabled are
//     bit-identical to the sequential loop — including attempt counts and
//     the statuses of rejected tickets;
//   * retries recover transient outages and wrap exhaustion as
//     kRetryExhausted without disturbing neighbouring requests, and a
//     retry policy outside [1, kMaxRetryAttempts] fails the open.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/integrity.hpp"
#include "core/ranging.hpp"
#include "mathx/stream_tags.hpp"
#include "sim/environment.hpp"
#include "sim/link.hpp"
#include "sim/radio.hpp"

namespace chronos::core {
namespace {

/// Reduced sweep plan (every 5th US band, one exchange) — the same
/// fast fixture the batch determinism suite uses.
sim::LinkSimConfig fast_link() {
  sim::LinkSimConfig c;
  const auto& plan = phy::us_band_plan();
  for (std::size_t i = 0; i < plan.size(); i += 5) {
    c.bands.push_back(plan[i]);
  }
  c.exchanges_per_band = 1;
  return c;
}

/// `n` phones (node id = hardware seed 100 + i) against the antennas of one
/// laptop (node 77), registered in `source`.
std::vector<RangingRequest> make_requests(SimSweepSource& source,
                                          std::size_t n) {
  std::vector<RangingRequest> reqs;
  source.add_node(sim::make_laptop({12.0, 9.0}, 0.3, 77));
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 2.0 + 0.7 * static_cast<double>(i % 11);
    const double y = 2.0 + 0.5 * static_cast<double>(i % 7);
    source.add_node(sim::make_mobile({x, y}, 100 + i));
    reqs.push_back({{NodeId{100 + i}, 0}, {NodeId{77}, i % 3}});
  }
  return reqs;
}

void expect_bitwise_equal(const RangingResult& a, const RangingResult& b) {
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.tof_s, b.tof_s);
  EXPECT_EQ(a.distance_m, b.distance_m);
  EXPECT_EQ(a.toa_s, b.toa_s);
  EXPECT_EQ(a.detection_delay_s, b.detection_delay_s);
  EXPECT_EQ(a.peak_found, b.peak_found);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  ASSERT_EQ(a.profile.magnitudes.size(), b.profile.magnitudes.size());
  for (std::size_t i = 0; i < a.profile.magnitudes.size(); ++i) {
    EXPECT_EQ(a.profile.magnitudes[i], b.profile.magnitudes[i]);
  }
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].delay_s, b.candidates[i].delay_s);
    EXPECT_EQ(a.candidates[i].accepted, b.candidates[i].accepted);
  }
}

/// Engine options with (optionally) the hostile integrity gate armed.
EngineOptions engine_options(bool hostile_gate = true) {
  EngineOptions options;
  if (hostile_gate) options.ranging.integrity = IntegrityConfig::hostile();
  return options;
}

/// One-time fixture calibration of the laptop pair 11/22 (registered in
/// `source`) on a fixed seed (the ToA-consistency check needs a calibrated
/// detection-delay bias).
void calibrate(Engine& eng, SimSweepSource& source) {
  source.add_node(sim::make_laptop({0.0, 0.0}, 0.3, 11));
  source.add_node(sim::make_laptop({1.5, 0.0}, 0.3, 22));
  mathx::Rng cal_rng(5);
  ASSERT_TRUE(eng.calibrate(NodeId{11}, NodeId{22}, cal_rng).ok());
}

TEST(FaultInjection, ZeroProfileIsBitIdenticalToUndecoratedBackend) {
  // The clean path hands the caller's rng to the inner backend untouched,
  // so decorating with an all-zero profile changes NOTHING — the property
  // that lets the injector wrap production sources unconditionally.
  const auto inner =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  Engine plain = Engine::adopt(inner, engine_options());
  calibrate(plain, *inner);
  Engine wrapped = Engine::adopt(
      std::make_shared<FaultInjectingSweepSource>(inner, FaultProfile{}),
      engine_options());
  calibrate(wrapped, *inner);

  const auto requests = make_requests(*inner, 6);
  mathx::Rng rng_a(9);
  const auto a = plain.measure_batch(requests, rng_a, BatchOptions{1});
  mathx::Rng rng_b(9);
  const auto b = wrapped.measure_batch(requests, rng_b, BatchOptions{4});

  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    // Hostile gate + clean sweeps: nothing may be rejected either.
    EXPECT_TRUE(a.results[i].status.ok()) << a.results[i].status.message();
    expect_bitwise_equal(a.results[i], b.results[i]);
  }
  EXPECT_EQ(rng_a.uniform(0.0, 1.0), rng_b.uniform(0.0, 1.0));
}

TEST(FaultInjection, PlannedFaultGroundTruthMatchesRejectionStatuses) {
  // planned_fault(base.split(i)) reconstructs, without consuming anything,
  // exactly which fault ticket i will suffer — and each fault class lands
  // in its documented status. This is the mapping the adversarial bench's
  // detection/false-reject accounting is built on.
  const auto inner =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  const auto injector = std::make_shared<FaultInjectingSweepSource>(
      inner, FaultProfile::hostile(0.13));
  Engine eng = Engine::adopt(injector, engine_options());
  calibrate(eng, *inner);

  const auto requests = make_requests(*inner, 48);
  mathx::Rng rng(777);
  mathx::Rng probe(777);  // same seed -> same fork -> same split streams
  const mathx::Rng base = probe.fork(kBatchStreamTag);
  const auto batch = eng.measure_batch(requests, rng, BatchOptions{4});

  std::size_t clean = 0;
  std::size_t false_rejects = 0;
  std::size_t seen[7] = {};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const FaultKind kind = injector->planned_fault(base.split(i));
    seen[static_cast<std::size_t>(kind)] += 1;
    const auto code = batch.results[i].status.code();
    switch (kind) {
      case FaultKind::kNone:
        clean += 1;
        false_rejects += batch.results[i].status.ok() ? 0 : 1;
        break;
      case FaultKind::kOutage:
        EXPECT_EQ(code, chronos::StatusCode::kUnavailable) << i;
        break;
      case FaultKind::kTruncated:
        EXPECT_EQ(code, chronos::StatusCode::kMalformedSweep) << i;
        break;
      case FaultKind::kReplayed:
      case FaultKind::kSpoofedDelay:
      case FaultKind::kBandLiar:
      case FaultKind::kSnrCollapse:
        EXPECT_EQ(code, chronos::StatusCode::kIntegrityViolation) << i;
        break;
    }
  }
  // The hostile gate's false-reject budget on clean traffic is 5%.
  EXPECT_LE(static_cast<double>(false_rejects),
            0.05 * static_cast<double>(clean));
  // The fixed seed exercises every fault class at least once.
  for (std::size_t k = 1; k < 7; ++k) {
    EXPECT_GE(seen[k], 1u) << "fault kind " << k << " never drawn";
  }
}

TEST(FaultInjection, ThreadCountNeverChangesFaultedRetriedResults) {
  // The headline determinism-under-faults property: hostile profile,
  // hostile gate, retries enabled — N threads bit-identical to the
  // sequential loop, including which tickets were faulted, how many
  // attempts each consumed, and every rejected ticket's status.
  const auto inner =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  Engine eng = Engine::adopt(std::make_shared<FaultInjectingSweepSource>(
                                 inner, FaultProfile::hostile(0.1)),
                             engine_options());
  calibrate(eng, *inner);
  const auto requests = make_requests(*inner, 12);

  BatchOptions sequential_opts{1};
  sequential_opts.retry = {3};
  mathx::Rng rng_seq(42);
  const auto sequential =
      eng.measure_batch(requests, rng_seq, sequential_opts);

  std::size_t retried = 0;
  for (const auto& r : sequential.results) retried += r.attempts > 1 ? 1 : 0;
  EXPECT_GE(retried, 1u) << "fixture never retried; weaken nothing";

  for (const int threads : {2, 4, 8}) {
    BatchOptions opts{threads};
    opts.retry = {3};
    mathx::Rng rng_par(42);
    const auto parallel = eng.measure_batch(requests, rng_par, opts);
    ASSERT_EQ(parallel.results.size(), sequential.results.size());
    for (std::size_t i = 0; i < parallel.results.size(); ++i) {
      expect_bitwise_equal(parallel.results[i], sequential.results[i]);
    }
    EXPECT_EQ(rng_seq.uniform(0.0, 1.0), rng_par.uniform(0.0, 1.0));
    rng_seq = mathx::Rng(42);
    (void)eng.measure_batch(requests, rng_seq, sequential_opts);
  }

  // A streaming session honours the same contract at the same seed.
  mathx::Rng rng_async(42);
  auto session = eng.open_session(
      rng_async,
      {.queue_depth = requests.size(), .threads = 4, .retry = {3}});
  for (const auto& request : requests) {
    ASSERT_TRUE(session.submit(request).ok());
  }
  const auto async = session.drain();
  ASSERT_EQ(async.size(), sequential.results.size());
  for (std::size_t i = 0; i < async.size(); ++i) {
    expect_bitwise_equal(async[i], sequential.results[i]);
  }
}

TEST(FaultInjection, RetriesRecoverTransientOutages) {
  FaultProfile outages;
  outages.p_outage = 0.5;
  const auto inner =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  Engine eng = Engine::adopt(
      std::make_shared<FaultInjectingSweepSource>(inner, outages),
      engine_options(/*hostile_gate=*/false));
  calibrate(eng, *inner);
  const auto requests = make_requests(*inner, 20);

  // Without retries the outages surface raw.
  mathx::Rng rng_raw(3);
  const auto raw = eng.measure_batch(requests, rng_raw, BatchOptions{1});
  std::size_t raw_outages = 0;
  for (const auto& r : raw.results) {
    raw_outages +=
        r.status.code() == chronos::StatusCode::kUnavailable ? 1 : 0;
    EXPECT_EQ(r.attempts, 1);
  }
  EXPECT_GE(raw_outages, 1u);

  // With a 4-attempt budget every ticket either recovers (some needing
  // more than one attempt) or reports honest exhaustion.
  BatchOptions opts{4};
  opts.retry = {4};
  mathx::Rng rng(3);
  const auto batch = eng.measure_batch(requests, rng, opts);
  std::size_t recovered = 0;
  for (const auto& r : batch.results) {
    EXPECT_TRUE(r.status.ok() ||
                r.status.code() == chronos::StatusCode::kRetryExhausted)
        << r.status.message();
    recovered += (r.status.ok() && r.attempts > 1) ? 1 : 0;
  }
  EXPECT_GE(recovered, 1u);
}

TEST(FaultInjection, ExhaustionWrapsAsRetryExhausted) {
  FaultProfile always_down;
  always_down.p_outage = 1.0;
  const auto inner =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  Engine eng = Engine::adopt(
      std::make_shared<FaultInjectingSweepSource>(inner, always_down),
      engine_options(/*hostile_gate=*/false));
  calibrate(eng, *inner);
  const auto requests = make_requests(*inner, 3);

  BatchOptions opts{1};
  opts.retry = {3};
  mathx::Rng rng(8);
  const auto exhausted = eng.measure_batch(requests, rng, opts);
  for (const auto& r : exhausted.results) {
    EXPECT_EQ(r.status.code(), chronos::StatusCode::kRetryExhausted);
    EXPECT_EQ(r.attempts, 3);
  }

  // max_attempts == 1 is the pre-retry contract: the raw status, unwrapped.
  mathx::Rng rng_one(8);
  const auto one = eng.measure_batch(requests, rng_one, BatchOptions{1});
  for (const auto& r : one.results) {
    EXPECT_EQ(r.status.code(), chronos::StatusCode::kUnavailable);
    EXPECT_EQ(r.attempts, 1);
  }
}

TEST(FaultInjection, OutOfRangeRetryPolicyFailsTheOpen) {
  // The retry ladder has kMaxRetryAttempts stream offsets. A policy past
  // them is refused when the batch's session opens, not ticket by ticket
  // as a library defect (kInternal). Empty batches: nothing is ranged.
  const auto source =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  const Engine eng = Engine::adopt(source, engine_options());
  const std::vector<RangingRequest> none;
  BatchOptions opts{1};
  opts.retry = {chronos::kMaxRetryAttempts + 1};
  mathx::Rng rng(9);
  EXPECT_THROW((void)eng.measure_batch(none, rng, opts),
               std::invalid_argument);
  opts.retry = {chronos::kMaxRetryAttempts};
  EXPECT_TRUE(eng.measure_batch(none, rng, opts).results.empty());
  opts.retry = {0};
  EXPECT_THROW((void)eng.measure_batch(none, rng, opts),
               std::invalid_argument);
}

/// RMS magnitude of one capture's subcarrier values.
double capture_rms(const phy::CsiMeasurement& m) {
  return std::sqrt(m.energy() / static_cast<double>(m.values.size()));
}

TEST(FaultInjection, HostileGateRejectsNoiseCarryingHonestMetadata) {
  // CSI replaced by noise while every timestamp and SNR tag stays honest:
  // no injected fault class covers this (kSnrCollapse also rewrites the
  // SNR tags), so nothing but the post-estimate checks can catch it.
  // Both classes must come back kIntegrityViolation on office links.
  const auto source = std::make_shared<SimSweepSource>(sim::office_20x20(),
                                                       sim::LinkSimConfig{});
  Engine eng = Engine::adopt(source, engine_options());
  calibrate(eng, *source);
  source->add_node(sim::make_laptop({10.0, 10.0}, 0.3, 500));

  const geom::Vec2 mobiles[] = {{11.0, 10.5}, {6.0, 8.0},  {14.0, 15.0},
                                {3.0, 3.0},   {18.0, 4.0}, {2.0, 17.0}};
  mathx::Rng rng(42);
  for (std::size_t i = 0; i < std::size(mobiles); ++i) {
    SCOPED_TRACE(i);
    source->add_node(sim::make_mobile(mobiles[i], 600 + i));
    const RangingRequest request{{NodeId{600 + i}, 0}, {NodeId{500}, 0}};
    const auto honest = eng.capture_sweep(request, rng);
    ASSERT_TRUE(honest.ok()) << honest.status().message();
    ASSERT_TRUE(eng.estimate(honest.value()).ok());

    // Uniform i.i.d. phase on every subcarrier, magnitudes kept.
    auto iid_phase = honest.value();
    // Complex Gaussian CSI at each capture's RMS magnitude.
    auto gaussian = honest.value();
    for (std::size_t b = 0; b < iid_phase.bands.size(); ++b) {
      for (std::size_t c = 0; c < iid_phase.bands[b].size(); ++c) {
        for (auto* m : {&iid_phase.bands[b][c].forward,
                        &iid_phase.bands[b][c].reverse}) {
          for (auto& v : m->values) {
            v = std::polar(std::abs(v), rng.uniform_phase());
          }
        }
        for (auto* m : {&gaussian.bands[b][c].forward,
                        &gaussian.bands[b][c].reverse}) {
          const double sigma = capture_rms(*m) / std::sqrt(2.0);
          for (auto& v : m->values) v = rng.complex_gaussian(sigma);
        }
      }
    }
    for (const auto* noise : {&iid_phase, &gaussian}) {
      const auto result = eng.estimate(*noise);
      EXPECT_EQ(result.status().code(),
                chronos::StatusCode::kIntegrityViolation)
          << result.status().message();
    }
  }
}

TEST(FaultInjection, SpoofedDelayIsRejectedBeforeTheSolve) {
  // The direction-symmetry check on its own. With an empty calibration the
  // ToA gate is off and the post-estimate ToA/ToF check cannot fire, and
  // the screen passes the spoofed sweep, so only the check between combine
  // and the solve can reject it. Its rejection carries the status alone:
  // no solve ran, no profile or candidate was made.
  const sim::LinkSimConfig link_config = fast_link();
  const sim::LinkSimulator link(sim::office_20x20(), link_config);
  mathx::Rng rng(31);
  const phy::SweepMeasurement honest =
      link.simulate_sweep(sim::make_mobile({3.0, 4.0}, 41), 0,
                          sim::make_laptop({11.0, 8.0}, 0.3, 42), 0, rng);
  mathx::Rng fault_stream(32);
  const phy::SweepMeasurement spoofed = apply_fault(
      FaultKind::kSpoofedDelay, honest, FaultProfile{}, fault_stream);
  ASSERT_TRUE(
      screen_sweep(spoofed, link_config.bands, IntegrityConfig::hostile())
          .ok());

  for (const bool two_way : {true, false}) {
    SCOPED_TRACE(two_way ? "two-way" : "one-way");
    RangingConfig config;
    config.combining.two_way = two_way;
    config.integrity = IntegrityConfig::hostile();
    const RangingPipeline pipeline(link_config.bands, config);

    const RangingResult clean = pipeline.estimate(honest);
    EXPECT_TRUE(clean.status.ok()) << clean.status.message();
    EXPECT_GT(clean.solver_iterations, 0);

    const RangingResult rejected = pipeline.estimate(spoofed);
    EXPECT_EQ(rejected.status.code(),
              chronos::StatusCode::kIntegrityViolation)
        << rejected.status.message();
    EXPECT_EQ(rejected.solver_iterations, 0);
    EXPECT_TRUE(rejected.profile.magnitudes.empty());
    EXPECT_TRUE(rejected.profile.peaks.empty());
    EXPECT_TRUE(rejected.candidates.empty());
    EXPECT_FALSE(rejected.peak_found);
  }
}

TEST(FaultInjection, RejectsIllFormedProfiles) {
  const auto inner =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  FaultProfile over;
  over.p_outage = 0.7;
  over.p_truncate = 0.5;  // sum > 1
  EXPECT_THROW((void)FaultInjectingSweepSource(inner, over),
               std::invalid_argument);
  FaultProfile negative;
  negative.p_spoof = -0.1;
  EXPECT_THROW((void)FaultInjectingSweepSource(inner, negative),
               std::invalid_argument);
}

}  // namespace
}  // namespace chronos::core
