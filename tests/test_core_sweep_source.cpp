// The SweepSource backend seam: SimSweepSource must be bit-identical to the
// pre-seam simulator path, and TraceSweepSource must make a recorded trace
// (write_sweep -> try_read_sweep -> replay) range exactly like the in-memory
// sweep — the estimator cannot tell the backends apart.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep_source.hpp"
#include "phy/csi_io.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"

namespace chronos::core {
namespace {

/// Reduced sweep plan (every 5th US band, one exchange) keeps sweeps cheap;
/// none of the seam properties depend on the plan.
sim::LinkSimConfig fast_link() {
  sim::LinkSimConfig c;
  const auto& plan = phy::us_band_plan();
  for (std::size_t i = 0; i < plan.size(); i += 5) {
    c.bands.push_back(plan[i]);
  }
  c.exchanges_per_band = 1;
  return c;
}

void expect_bitwise_equal(const RangingResult& a, const RangingResult& b) {
  EXPECT_EQ(a.tof_s, b.tof_s);
  EXPECT_EQ(a.distance_m, b.distance_m);
  EXPECT_EQ(a.toa_s, b.toa_s);
  EXPECT_EQ(a.peak_found, b.peak_found);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
}

TEST(SimSweepSource, MatchesDirectSimulatorBitExactly) {
  const sim::LinkSimulator link(sim::office_20x20(), fast_link());
  const SimSweepSource source(sim::office_20x20(), fast_link());

  const auto tx = sim::make_mobile({3.0, 4.0}, 7);
  const auto rx = sim::make_laptop({11.0, 9.0}, 0.3, 8);
  mathx::Rng rng_direct(42);
  mathx::Rng rng_seam(42);
  const auto direct = link.simulate_sweep(tx, 0, rx, 1, rng_direct);
  const auto seamed =
      source.sweep_for(ResolvedRequest{tx, 0, rx, 1}, rng_seam).value();

  ASSERT_EQ(direct.bands.size(), seamed.bands.size());
  for (std::size_t bi = 0; bi < direct.bands.size(); ++bi) {
    ASSERT_EQ(direct.bands[bi].size(), seamed.bands[bi].size());
    for (std::size_t c = 0; c < direct.bands[bi].size(); ++c) {
      for (std::size_t k = 0; k < 30; ++k) {
        EXPECT_EQ(direct.bands[bi][c].forward.values[k],
                  seamed.bands[bi][c].forward.values[k]);
        EXPECT_EQ(direct.bands[bi][c].reverse.values[k],
                  seamed.bands[bi][c].reverse.values[k]);
      }
    }
  }
  // Both drew the same amount from their streams.
  EXPECT_EQ(rng_direct.uniform(0.0, 1.0), rng_seam.uniform(0.0, 1.0));
}

TEST(SimSweepSource, EngineRangesExactlyTheDirectSimulatorSweep) {
  // Engine::measure over a SimSweepSource is the pipeline applied to the
  // sweep the simulator itself produces on the same stream, and a batch
  // on one thread equals a batch on two.
  auto source =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  const Engine engine = Engine::adopt(source);
  const sim::LinkSimulator link(sim::office_20x20(), fast_link());
  const RangingPipeline pipeline(source->bands());

  const auto tx = sim::make_mobile({2.0, 2.0}, 5);
  const auto rx = sim::make_mobile({9.0, 6.0}, 6);
  source->add_node(tx);
  source->add_node(rx);
  mathx::Rng rng_a(11);
  mathx::Rng rng_b(11);
  expect_bitwise_equal(
      engine.measure({{NodeId{5}, 0}, {NodeId{6}, 0}}, rng_a).value(),
      pipeline.estimate(link.simulate_sweep(tx, 0, rx, 0, rng_b)));

  const std::vector<RangingRequest> requests = {
      {{NodeId{5}, 0}, {NodeId{6}, 0}}, {{NodeId{6}, 0}, {NodeId{5}, 0}}};
  mathx::Rng rng_c(12);
  mathx::Rng rng_d(12);
  const auto batch_a = engine.measure_batch(requests, rng_c, BatchOptions{1});
  const auto batch_b = engine.measure_batch(requests, rng_d, BatchOptions{2});
  ASSERT_EQ(batch_a.results.size(), batch_b.results.size());
  for (std::size_t i = 0; i < batch_a.results.size(); ++i) {
    expect_bitwise_equal(batch_a.results[i], batch_b.results[i]);
  }
}

TEST(TraceSweepSource, RoundTripRangesIdenticallyToInMemorySweep) {
  // The satellite contract: write_sweep -> try_read_sweep ->
  // TraceSweepSource replay must produce ranging output identical to
  // ranging the in-memory sweep directly.
  const sim::LinkSimulator link(sim::office_20x20(), fast_link());
  const auto tx = sim::make_mobile({2.5, 3.5}, 21);
  const auto rx = sim::make_mobile({8.0, 7.0}, 22);

  mathx::Rng record_rng(77);
  const auto sweep = link.simulate_sweep(tx, 0, rx, 0, record_rng);

  std::stringstream ss;
  phy::write_sweep(ss, sweep);
  auto loaded = phy::try_read_sweep(ss).value();

  auto trace = std::make_shared<TraceSweepSource>();
  ASSERT_TRUE(trace
                  ->try_add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                                  std::move(loaded))
                  .ok());
  EXPECT_EQ(trace->key_count(), 1u);
  EXPECT_EQ(trace->sweep_count(), 1u);

  const Engine engine = Engine::adopt(trace);
  mathx::Rng replay_rng(1);
  const auto replayed =
      engine.measure({{NodeId{21}, 0}, {NodeId{22}, 0}}, replay_rng).value();

  const RangingPipeline pipeline(trace->bands());
  const auto direct = pipeline.estimate(sweep);

  EXPECT_EQ(replayed.tof_s, direct.tof_s);
  EXPECT_EQ(replayed.distance_m, direct.distance_m);
  EXPECT_EQ(replayed.toa_s, direct.toa_s);
  EXPECT_EQ(replayed.solver_iterations, direct.solver_iterations);
  ASSERT_EQ(replayed.profile.magnitudes.size(),
            direct.profile.magnitudes.size());
  for (std::size_t i = 0; i < replayed.profile.magnitudes.size(); ++i) {
    EXPECT_EQ(replayed.profile.magnitudes[i], direct.profile.magnitudes[i]);
  }
}

TEST(TraceSweepSource, BatchedReplayIsThreadCountInvariant) {
  // The determinism contract holds for the trace backend too: a batch over
  // recorded sweeps is bit-identical for every thread count.
  const sim::LinkSimulator link(sim::office_20x20(), fast_link());

  auto trace = std::make_shared<TraceSweepSource>();
  std::vector<RangingRequest> requests;
  mathx::Rng record_rng(5);
  const auto rx = sim::make_laptop({12.0, 9.0}, 0.3, 99);
  for (std::uint64_t d = 0; d < 6; ++d) {
    const auto tx = sim::make_mobile({2.0 + 1.5 * static_cast<double>(d), 4.0},
                                     200 + d);
    ASSERT_TRUE(
        trace
            ->try_add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                            link.simulate_sweep(tx, 0, rx, 0, record_rng))
            .ok());
    requests.push_back({{NodeId{200 + d}, 0}, {NodeId{99}, 0}});
  }

  const Engine engine = Engine::adopt(trace);
  mathx::Rng rng_seq(31);
  const auto sequential = engine.measure_batch(requests, rng_seq,
                                               BatchOptions{1});
  for (const int threads : {2, 4}) {
    mathx::Rng rng_par(31);
    const auto parallel =
        engine.measure_batch(requests, rng_par, BatchOptions{threads});
    ASSERT_EQ(parallel.results.size(), sequential.results.size());
    for (std::size_t i = 0; i < parallel.results.size(); ++i) {
      expect_bitwise_equal(parallel.results[i], sequential.results[i]);
    }
  }
}

TEST(TraceSweepSource, RepeatedSweepsReplayDeterministically) {
  const sim::LinkSimulator link(sim::office_20x20(), fast_link());
  const auto tx = sim::make_mobile({3.0, 3.0}, 31);
  const auto rx = sim::make_mobile({6.0, 6.0}, 32);
  const TraceKey key = TraceKey::of(ResolvedRequest{tx, 0, rx, 0});

  TraceSweepSource trace;
  mathx::Rng record_rng(9);
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(
        trace.try_add_sweep(key, link.simulate_sweep(tx, 0, rx, 0, record_rng))
            .ok());
  }
  EXPECT_EQ(trace.sweep_count(), 3u);

  // Same rng state -> same pick; the choice is a pure function of the
  // stream, never of hidden replay state.
  mathx::Rng rng_a(4);
  mathx::Rng rng_b(4);
  const auto a = trace.sweep_for(ResolvedRequest{tx, 0, rx, 0}, rng_a).value();
  const auto b = trace.sweep_for(ResolvedRequest{tx, 0, rx, 0}, rng_b).value();
  ASSERT_EQ(a.bands.size(), b.bands.size());
  EXPECT_EQ(a.bands[0][0].forward.values[0], b.bands[0][0].forward.values[0]);
}

TEST(TraceSweepSource, RejectsUnknownKeyAndInconsistentBands) {
  const auto fast = fast_link();
  const sim::LinkSimulator link(sim::office_20x20(), fast);
  const auto tx = sim::make_mobile({3.0, 3.0}, 41);
  const auto rx = sim::make_mobile({6.0, 6.0}, 42);

  TraceSweepSource trace;
  // No recorded sweeps: asking for the band plan is programmer error...
  EXPECT_THROW((void)trace.bands(), std::invalid_argument);

  mathx::Rng rng(2);
  ASSERT_TRUE(trace
                  .try_add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                                 link.simulate_sweep(tx, 0, rx, 0, rng))
                  .ok());
  // ...but an unrecorded link in a request is recoverable data (v2).
  mathx::Rng query_rng(3);
  const auto missing =
      trace.sweep_for(ResolvedRequest{tx, 0, rx, 1}, query_rng);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), chronos::StatusCode::kUnknownLink);

  // A sweep over a different band plan must be rejected with
  // kBandMismatch.
  sim::LinkSimConfig other_cfg = fast;
  other_cfg.bands.pop_back();
  const sim::LinkSimulator other_link(sim::office_20x20(), other_cfg);
  const auto mismatched = other_link.simulate_sweep(tx, 0, rx, 0, rng);
  EXPECT_EQ(trace
                .try_add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                               mismatched)
                .code(),
            chronos::StatusCode::kBandMismatch);
}

/// Serves one fixed sweep for every request, unchecked, over a simulator's
/// node directory: a backend that hands the pipeline whatever it holds.
class FixedSweepSource final : public SweepSource {
 public:
  FixedSweepSource(std::shared_ptr<const SimSweepSource> inner,
                   phy::SweepMeasurement sweep)
      : inner_(std::move(inner)), sweep_(std::move(sweep)) {}

  bool has_node(NodeId id) const override { return inner_->has_node(id); }
  chronos::Result<std::size_t> antenna_count(NodeId id) const override {
    return inner_->antenna_count(id);
  }
  std::vector<NodeId> nodes() const override { return inner_->nodes(); }
  chronos::Result<ResolvedRequest> resolve(
      const RangingRequest& request) const override {
    return inner_->resolve(request);
  }
  chronos::Result<phy::SweepMeasurement> sweep_for(
      const ResolvedRequest&, mathx::Rng&) const override {
    return sweep_;
  }
  const std::vector<phy::WifiBand>& bands() const override {
    return inner_->bands();
  }
  bool has_geometry() const override { return inner_->has_geometry(); }
  std::string backend_name() const override { return "fixed"; }

 private:
  std::shared_ptr<const SimSweepSource> inner_;
  phy::SweepMeasurement sweep_;
};

TEST(TraceSweepSource, ZeroOrNonFiniteCsiIsAMalformedSweep) {
  // A capture whose CSI is all zero or carries a NaN cannot be normalised
  // by the band AGC; a non-finite SNR or timestamp passes every bound check
  // and opens the ToA gate. The recorder refuses all five, since every
  // later range would reject them. Served by a backend that does not
  // check, each is still kMalformedSweep on every path: measure without
  // throwing, a batch slot without kInternal (the code for library
  // defects), and no message naming a failed precondition.
  auto simulator =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  const auto tx = sim::make_mobile({2.0, 3.0}, 71);
  const auto rx = sim::make_mobile({7.0, 5.0}, 72);
  simulator->add_node(tx);
  simulator->add_node(rx);
  mathx::Rng record_rng(9);
  const auto honest =
      simulator->link().simulate_sweep(tx, 0, rx, 0, record_rng);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto zeroed = honest;
  for (auto& v : zeroed.bands[3][0].forward.values) v = {0.0, 0.0};
  auto nan = honest;
  nan.bands[3][0].reverse.values[5] = {kNaN, 0.0};
  auto nan_snr = honest;
  nan_snr.bands[6][0].forward.snr_db = kNaN;
  auto inf_snr = honest;
  inf_snr.bands[2][0].reverse.snr_db = std::numeric_limits<double>::infinity();
  auto nan_timestamp = honest;
  nan_timestamp.bands[5][0].forward.timestamp_s = kNaN;

  const auto expect_malformed = [](const chronos::Status& status) {
    EXPECT_EQ(status.code(), chronos::StatusCode::kMalformedSweep)
        << status.to_string();
    EXPECT_EQ(status.message().find("precondition failed"),
              std::string::npos)
        << status.to_string();
  };
  const RangingRequest request{{NodeId{71}, 0}, {NodeId{72}, 0}};
  const std::pair<const char*, const phy::SweepMeasurement*> cases[] = {
      {"all-zero capture", &zeroed},
      {"NaN capture", &nan},
      {"NaN forward SNR", &nan_snr},
      {"+inf reverse SNR", &inf_snr},
      {"NaN timestamp", &nan_timestamp},
  };
  for (const auto& [name, sweep] : cases) {
    SCOPED_TRACE(name);
    TraceSweepSource trace;
    expect_malformed(
        trace.try_add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 0}),
                            *sweep));
    EXPECT_EQ(trace.sweep_count(), 0u);

    const Engine engine =
        Engine::adopt(std::make_shared<FixedSweepSource>(simulator, *sweep));
    mathx::Rng rng(1);
    std::optional<chronos::Result<RangingResult>> measured;
    EXPECT_NO_THROW(measured.emplace(engine.measure(request, rng)));
    ASSERT_TRUE(measured.has_value());
    ASSERT_FALSE(measured->ok());
    expect_malformed(measured->status());

    const auto batch = engine.measure_batch({&request, 1}, rng);
    ASSERT_EQ(batch.results.size(), 1u);
    expect_malformed(batch.results[0].status);

    const auto estimated = engine.estimate(*sweep);
    ASSERT_FALSE(estimated.ok());
    expect_malformed(estimated.status());
  }
}

TEST(Engine, BandDefectsReportOneCodePerPath) {
  // A capture whose forward and reverse bands differ is damage for the
  // pipeline's screen and the recorder alike. The plan's channel at
  // another center frequency is a band-identity lie (retryable) for the
  // screen, and a band mismatch for the recorder. Engine::estimate's codes
  // are pinned in test_core_api.
  auto simulator =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  const auto tx = sim::make_mobile({2.0, 3.0}, 73);
  const auto rx = sim::make_mobile({7.0, 5.0}, 74);
  simulator->add_node(tx);
  simulator->add_node(rx);
  mathx::Rng record_rng(10);
  const auto honest =
      simulator->link().simulate_sweep(tx, 0, rx, 0, record_rng);
  auto split = honest;
  split.bands[4][0].reverse.band = simulator->bands()[3];
  auto shifted = honest;
  for (auto& cap : shifted.bands[4]) {
    cap.forward.band.center_freq_hz += 5e6;
    cap.reverse.band.center_freq_hz += 5e6;
  }

  const RangingRequest request{{NodeId{73}, 0}, {NodeId{74}, 0}};
  struct Case {
    const char* name;
    const phy::SweepMeasurement* sweep;
    chronos::StatusCode measured;  // through the pipeline's screen
    chronos::StatusCode recorded;  // as a second recorded sweep
  };
  const Case cases[] = {
      {"forward/reverse bands differ", &split,
       chronos::StatusCode::kMalformedSweep,
       chronos::StatusCode::kMalformedSweep},
      {"channel at another center frequency", &shifted,
       chronos::StatusCode::kIntegrityViolation,
       chronos::StatusCode::kBandMismatch},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const Engine engine =
        Engine::adopt(std::make_shared<FixedSweepSource>(simulator, *c.sweep));
    mathx::Rng rng(1);
    EXPECT_EQ(engine.measure(request, rng).status().code(), c.measured);

    TraceSweepSource trace;
    ASSERT_TRUE(trace.try_add_sweep(TraceKey::of(request), honest).ok());
    EXPECT_EQ(trace.try_add_sweep(TraceKey::of(request), *c.sweep).code(),
              c.recorded);
    EXPECT_EQ(trace.sweep_count(), 1u);
  }
}

TEST(Engine, SetCalibrationInstallsRecordedTable) {
  auto source =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  Engine sim_engine = Engine::adopt(source);
  source->add_node(sim::make_mobile({0.0, 0.0}, 1));
  source->add_node(sim::make_mobile({1.0, 0.0}, 2));
  mathx::Rng cal_rng(15);
  ASSERT_TRUE(sim_engine.calibrate(NodeId{1}, NodeId{2}, cal_rng).ok());

  // Record one sweep and replay it on a trace engine that inherits the sim
  // engine's calibration table; both engines must estimate identically.
  source->add_node(sim::make_mobile({4.0, 4.0}, 51));
  source->add_node(sim::make_mobile({9.0, 5.0}, 52));
  const RangingRequest link{{NodeId{51}, 0}, {NodeId{52}, 0}};
  mathx::Rng record_rng(8);
  const auto sweep = sim_engine.capture_sweep(link, record_rng).value();

  auto trace = std::make_shared<TraceSweepSource>();
  ASSERT_TRUE(trace->try_add_sweep(TraceKey::of(link), sweep).ok());
  Engine trace_engine = Engine::adopt(trace);
  ASSERT_TRUE(trace_engine.set_calibration(sim_engine.calibration()).ok());

  mathx::Rng replay_rng(1);
  const auto replayed = trace_engine.measure(link, replay_rng).value();
  const auto direct = sim_engine.estimate(sweep).value();
  EXPECT_EQ(replayed.tof_s, direct.tof_s);
  EXPECT_EQ(replayed.distance_m, direct.distance_m);
}

TEST(Engine, BackendIdentityAndDerivedTraceDirectory) {
  // backend_name() + the registry describe the backend, for simulator and
  // trace backends alike.
  const Engine sim_engine = Engine::adopt(
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link()));

  const sim::LinkSimulator link(sim::office_20x20(), fast_link());
  const auto tx = sim::make_mobile({3.0, 3.0}, 61);
  const auto rx = sim::make_laptop({6.0, 6.0}, 0.3, 62);
  auto trace = std::make_shared<TraceSweepSource>();
  mathx::Rng rng(2);
  ASSERT_TRUE(trace
                  ->try_add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 2}),
                                  link.simulate_sweep(tx, 0, rx, 2, rng))
                  .ok());
  const Engine trace_engine = Engine::adopt(trace);
  EXPECT_EQ(trace_engine.backend_name(), "trace");
  EXPECT_EQ(sim_engine.backend_name(), "sim");

  // The trace backend's node directory is derived from its recorded keys.
  const auto& registry = trace_engine.registry();
  EXPECT_TRUE(registry.has_node(chronos::NodeId{61}));
  EXPECT_TRUE(registry.has_node(chronos::NodeId{62}));
  EXPECT_FALSE(registry.has_node(chronos::NodeId{63}));
  EXPECT_EQ(registry.antenna_count(chronos::NodeId{61}).value(), 1u);
  EXPECT_EQ(registry.antenna_count(chronos::NodeId{62}).value(), 3u);
  EXPECT_EQ(registry.nodes().size(), 2u);
  EXPECT_EQ(registry.antenna_count(chronos::NodeId{9}).status().code(),
            chronos::StatusCode::kUnknownNode);
}

}  // namespace
}  // namespace chronos::core
