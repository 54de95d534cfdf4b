// The public API v2 contract (core/api.hpp):
//   * typed identity — NodeId requests resolve through the backend's
//     NodeRegistry, and every request-shaped failure (unknown node,
//     antenna out of range, unrecorded link, band mismatch, full queue)
//     comes back as a chronos::Status — never as an exception;
//   * flow control — RangingSession's bounded queue reports kQueueFull
//     from try_submit without blocking and without dropping anything.
#include <gtest/gtest.h>

#include <bit>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "chronos.hpp"
#include "core/sweep_source.hpp"
#include "phy/csi_io.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"

namespace chronos::core {
namespace {

/// Reduced sweep plan (every 5th US band, one exchange) keeps sweeps cheap;
/// none of the API properties depend on the plan.
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
  EXPECT_EQ(a.status.code(), b.status.code());
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
}

/// A sim-backed source whose sweep production blocks until release() — the
/// deterministic way to hold a session's queue full regardless of how fast
/// this machine ranges.
class GatedSource final : public SweepSource {
 public:
  explicit GatedSource(std::shared_ptr<SimSweepSource> inner)
      : inner_(std::move(inner)) {}

  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

  chronos::Result<phy::SweepMeasurement> sweep_for(
      const ResolvedRequest& req, mathx::Rng& rng) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return released_; });
    lock.unlock();
    return inner_->sweep_for(req, rng);
  }
  chronos::Result<ResolvedRequest> resolve(
      const chronos::RangingRequest& request) const override {
    return inner_->resolve(request);
  }
  const std::vector<phy::WifiBand>& bands() const override {
    return inner_->bands();
  }
  bool has_geometry() const override { return inner_->has_geometry(); }
  std::string backend_name() const override { return "gated-sim"; }
  bool has_node(chronos::NodeId id) const override {
    return inner_->has_node(id);
  }
  chronos::Result<std::size_t> antenna_count(
      chronos::NodeId id) const override {
    return inner_->antenna_count(id);
  }
  std::vector<chronos::NodeId> nodes() const override {
    return inner_->nodes();
  }

 private:
  std::shared_ptr<SimSweepSource> inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool released_ = false;
};

// ---------------------------------------------------------------------------
// Error model: every request-shaped failure is a Status, never an exception
// ---------------------------------------------------------------------------

TEST(ApiErrorModel, StatusCodeNamesRoundTripExhaustively) {
  // kAllStatusCodes is the exhaustiveness pin: [i] must hold value i, every
  // name must be unique, parse back to its code, and out-of-range values
  // must fall through to the sentinel. Adding an enumerator without
  // extending to_string + kAllStatusCodes fails here.
  const std::size_t n = std::size(chronos::kAllStatusCodes);
  std::set<std::string> names;
  for (std::size_t i = 0; i < n; ++i) {
    const chronos::StatusCode code = chronos::kAllStatusCodes[i];
    EXPECT_EQ(static_cast<std::size_t>(code), i);
    const std::string name = chronos::code_name(code);
    EXPECT_EQ(name.substr(0, 1), "k");
    EXPECT_TRUE(names.insert(name).second) << name << " is duplicated";
    const auto parsed = chronos::code_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, code);
  }
  // The two new adversarial-tier codes are part of the stable vocabulary.
  EXPECT_TRUE(names.contains("kIntegrityViolation"));
  EXPECT_TRUE(names.contains("kRetryExhausted"));
  // Out-of-range and unknown-name handling.
  EXPECT_STREQ(chronos::to_string(static_cast<chronos::StatusCode>(n)),
               "<invalid StatusCode>");
  EXPECT_FALSE(chronos::code_from_name("kNotACode").has_value());
  EXPECT_FALSE(chronos::code_from_name("").has_value());
}

TEST(ApiErrorModel, SimBackendStatusTable) {
  auto src =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  src->add_node(chronos::NodeId{1}, sim::make_mobile({2.0, 2.0}, 5));
  src->add_node(chronos::NodeId{2}, sim::make_laptop({9.0, 6.0}, 0.3, 6));
  const Engine eng = Engine::adopt(src);

  struct Case {
    const char* name;
    chronos::RangingRequest request;
    chronos::StatusCode expected;
  };
  const Case cases[] = {
      {"ok", {{{1}, 0}, {{2}, 2}}, chronos::StatusCode::kOk},
      {"unknown tx node", {{{42}, 0}, {{2}, 0}},
       chronos::StatusCode::kUnknownNode},
      {"unknown rx node", {{{1}, 0}, {{43}, 0}},
       chronos::StatusCode::kUnknownNode},
      {"tx antenna out of range", {{{1}, 1}, {{2}, 0}},
       chronos::StatusCode::kAntennaOutOfRange},
      {"rx antenna out of range", {{{1}, 0}, {{2}, 3}},
       chronos::StatusCode::kAntennaOutOfRange},
      // Multi-failure precedence: the tx endpoint is checked fully before
      // rx.
      {"tx antenna beats rx node", {{{1}, 5}, {{99}, 0}},
       chronos::StatusCode::kAntennaOutOfRange},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    mathx::Rng rng(9);
    chronos::Result<RangingResult> result{
        chronos::Status{chronos::StatusCode::kInternal, "unset"}};
    EXPECT_NO_THROW(result = eng.measure(c.request, rng));
    EXPECT_EQ(result.status().code(), c.expected);
  }
}

TEST(ApiErrorModel, TraceBackendStatusTable) {
  const sim::LinkSimulator link(sim::office_20x20(), fast_link());
  const auto tx = sim::make_mobile({2.5, 3.5}, 61);
  const auto rx = sim::make_laptop({8.0, 7.0}, 0.3, 62);
  auto trace = std::make_shared<TraceSweepSource>();
  mathx::Rng record_rng(4);
  ASSERT_TRUE(trace
                  ->try_add_sweep(TraceKey::of(ResolvedRequest{tx, 0, rx, 1}),
                                  link.simulate_sweep(tx, 0, rx, 1, record_rng))
                  .ok());
  Engine eng = Engine::adopt(trace);

  struct Case {
    const char* name;
    chronos::RangingRequest request;
    chronos::StatusCode expected;
  };
  const Case cases[] = {
      {"recorded link", {{{61}, 0}, {{62}, 1}}, chronos::StatusCode::kOk},
      {"unknown node", {{{7}, 0}, {{62}, 1}},
       chronos::StatusCode::kUnknownNode},
      {"antenna beyond recorded arity", {{{61}, 1}, {{62}, 1}},
       chronos::StatusCode::kAntennaOutOfRange},
      {"unrecorded pairing", {{{62}, 0}, {{61}, 0}},
       chronos::StatusCode::kUnknownLink},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    mathx::Rng rng(9);
    chronos::Result<RangingResult> result{
        chronos::Status{chronos::StatusCode::kInternal, "unset"}};
    EXPECT_NO_THROW(result = eng.measure(c.request, rng));
    EXPECT_EQ(result.status().code(), c.expected);
  }

  // Operations a trace backend cannot serve are kUnavailable, not crashes.
  mathx::Rng rng(3);
  EXPECT_EQ(eng.calibrate(chronos::NodeId{61}, chronos::NodeId{62}, rng)
                .code(),
            chronos::StatusCode::kUnavailable);
  EXPECT_EQ(
      eng.locate(chronos::NodeId{61}, chronos::NodeId{62}, rng).status().code(),
      chronos::StatusCode::kUnavailable);
}

TEST(ApiErrorModel, TryReadSweepReportsBandMismatchAndTruncation) {
  // Band mismatch: a channel the US plan does not contain.
  {
    std::istringstream is(
        "sweep 1 0.01\n"
        "band 0 999\n");
    const auto result = phy::try_read_sweep(is);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), chronos::StatusCode::kBandMismatch);
  }
  // Truncated exchange: a forward capture whose reverse partner never
  // arrives before end of stream.
  {
    const sim::LinkSimulator link(sim::office_20x20(), fast_link());
    mathx::Rng rng(5);
    const auto sweep = link.simulate_sweep(sim::make_mobile({1.0, 1.0}, 71), 0,
                                           sim::make_mobile({4.0, 4.0}, 72), 0,
                                           rng);
    std::ostringstream os;
    phy::write_sweep(os, sweep);
    std::string text = os.str();
    // Drop the final line (a reverse capture), leaving its forward
    // partner orphaned.
    text.pop_back();  // trailing newline
    text.erase(text.rfind('\n') + 1);
    std::istringstream is(text);
    const auto result = phy::try_read_sweep(is);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), chronos::StatusCode::kMalformedSweep);
    EXPECT_NE(result.status().message().find("truncated exchange"),
              std::string::npos);
  }
  // An unknown record tag is malformed, not a band mismatch.
  {
    std::istringstream is("garbage\n");
    EXPECT_EQ(phy::try_read_sweep(is).status().code(),
              chronos::StatusCode::kMalformedSweep);
  }
}

TEST(ApiErrorModel, ReplayOfOffPlanBandReportsBandMismatch) {
  // A recorded trace whose band record names a channel outside the US plan
  // is kBandMismatch through Engine::create_replay, exactly as the parser
  // reports it, with the parser's message rather than a contract-failure
  // text carrying a source location.
  const auto path = (std::filesystem::temp_directory_path() /
                     "chronos_api_off_plan_band.csi")
                        .string();
  {
    std::ofstream os(path);
    os << "sweep 1 0.01\n"
          "band 0 999\n";
  }
  TraceDeployment deployment;
  deployment.links.push_back(
      {{{chronos::NodeId{1}, 0}, {chronos::NodeId{2}, 0}}, path});
  const auto built = Engine::create_replay(deployment);
  std::remove(path.c_str());
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), chronos::StatusCode::kBandMismatch);
  EXPECT_EQ(built.status().message().find("precondition failed"),
            std::string::npos)
      << built.status().message();
  EXPECT_NE(built.status().message().find(path), std::string::npos);
}

TEST(ApiErrorModel, EstimateDistinguishesBandMismatchFromDamage) {
  // A structurally valid sweep recorded under a DIFFERENT band plan is a
  // recoverable kBandMismatch (rebuild the pipeline for it), not
  // kMalformedSweep.
  const auto fast = fast_link();
  const Engine eng = Engine::adopt(
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast));

  sim::LinkSimConfig other_cfg = fast;
  other_cfg.bands.pop_back();
  const sim::LinkSimulator other_link(sim::office_20x20(), other_cfg);
  mathx::Rng rng(6);
  const auto foreign = other_link.simulate_sweep(
      sim::make_mobile({1.0, 1.0}, 81), 0, sim::make_mobile({5.0, 5.0}, 82),
      0, rng);
  const auto result = eng.estimate(foreign);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), chronos::StatusCode::kBandMismatch);

  // A sweep on the right plan estimates fine through the same entry.
  const sim::LinkSimulator link(sim::office_20x20(), fast);
  const auto native = link.simulate_sweep(
      sim::make_mobile({1.0, 1.0}, 81), 0, sim::make_mobile({5.0, 5.0}, 82),
      0, rng);
  EXPECT_TRUE(eng.estimate(native).ok());

  // The plan's channel at another center frequency is another band: the
  // whole band is compared, not its channel number.
  auto shifted = native;
  for (auto& cap : shifted.bands[5]) {
    cap.forward.band.center_freq_hz += 5e6;
    cap.reverse.band.center_freq_hz += 5e6;
  }
  EXPECT_EQ(eng.estimate(shifted).status().code(),
            chronos::StatusCode::kBandMismatch);

  // A capture whose forward and reverse bands differ is damage.
  auto split = native;
  split.bands[5][0].reverse.band = fast.bands[4];
  EXPECT_EQ(eng.estimate(split).status().code(),
            chronos::StatusCode::kMalformedSweep);
}

TEST(ApiErrorModel, WrongSizeCalibrationTableIsRejectedAndTheOldOneKept) {
  // A recorded table enters at set_calibration(). One sized for another
  // band plan is kBandMismatch there, and the engine keeps ranging on its
  // previous table: bit for bit what an engine that never saw it returns.
  auto make_engine = [] {
    auto src =
        std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
    src->add_node(chronos::NodeId{1}, sim::make_mobile({2.0, 2.0}, 5));
    src->add_node(chronos::NodeId{2}, sim::make_mobile({9.0, 6.0}, 6));
    Engine eng = Engine::adopt(src);
    mathx::Rng cal_rng(5);
    EXPECT_TRUE(
        eng.calibrate(chronos::NodeId{1}, chronos::NodeId{2}, cal_rng).ok());
    return eng;
  };
  Engine clean = make_engine();
  Engine hit = make_engine();

  CalibrationTable wrong = hit.calibration();
  wrong.correction.resize(3);
  EXPECT_EQ(hit.set_calibration(wrong).code(),
            chronos::StatusCode::kBandMismatch);
  EXPECT_EQ(hit.calibration().correction, clean.calibration().correction);

  const chronos::RangingRequest link{{{1}, 0}, {{2}, 0}};
  mathx::Rng rng_hit(31);
  mathx::Rng rng_clean(31);
  const auto got = hit.measure(link, rng_hit);
  const auto want = clean.measure(link, rng_clean);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  expect_bitwise_equal(got.value(), want.value());

  // An empty table is still accepted: it uninstalls the calibration.
  EXPECT_TRUE(hit.set_calibration(CalibrationTable{}).ok());
  EXPECT_TRUE(hit.calibration().empty());
}

TEST(ApiErrorModel, BatchKeepsFailedRequestsIndexAligned) {
  // One bad request in a batch: its slot carries the status, every other
  // slot is bit-identical to the same batch with a valid request in that
  // position (split streams are per-index, not per-surviving-request).
  auto src =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  src->add_node(chronos::NodeId{1}, sim::make_mobile({2.0, 2.0}, 5));
  src->add_node(chronos::NodeId{2}, sim::make_laptop({9.0, 6.0}, 0.3, 6));
  const Engine eng = Engine::adopt(src);

  const chronos::RangingRequest good_a{{{1}, 0}, {{2}, 0}};
  const chronos::RangingRequest good_b{{{1}, 0}, {{2}, 1}};
  const chronos::RangingRequest bad{{{99}, 0}, {{2}, 0}};

  std::vector<chronos::RangingRequest> with_bad = {good_a, bad, good_b};
  std::vector<chronos::RangingRequest> all_good = {good_a, good_a, good_b};

  for (const int threads : {1, 4}) {
    mathx::Rng rng_bad(21);
    mathx::Rng rng_good(21);
    const auto mixed =
        eng.measure_batch(with_bad, rng_bad, BatchOptions{threads});
    const auto clean =
        eng.measure_batch(all_good, rng_good, BatchOptions{threads});
    ASSERT_EQ(mixed.results.size(), 3u);
    EXPECT_EQ(mixed.results[1].status.code(),
              chronos::StatusCode::kUnknownNode);
    expect_bitwise_equal(mixed.results[0], clean.results[0]);
    expect_bitwise_equal(mixed.results[2], clean.results[2]);

    // Same contract on an undrained session: the rejected request keeps
    // its slot through push_failed, exactly as measure_batch records it.
    mathx::Rng rng_async(21);
    auto session =
        eng.open_session(rng_async, {.queue_depth = 3, .threads = threads});
    ASSERT_TRUE(session.submit(with_bad[0]).ok());
    const auto rejected = session.submit(with_bad[1]);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(session.push_failed(rejected.status()), 1u);
    ASSERT_TRUE(session.submit(with_bad[2]).ok());
    const auto async = session.drain();
    ASSERT_EQ(async.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      expect_bitwise_equal(async[i], mixed.results[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded-queue sessions: kQueueFull, never blocks, never drops
// ---------------------------------------------------------------------------

TEST(ApiSession, TrySubmitReportsQueueFullWithoutBlockingOrDropping) {
  auto inner =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  inner->add_node(chronos::NodeId{1}, sim::make_mobile({2.0, 2.0}, 5));
  inner->add_node(chronos::NodeId{2}, sim::make_mobile({7.0, 5.0}, 6));
  auto gated = std::make_shared<GatedSource>(inner);
  const Engine eng = Engine::adopt(gated);

  const chronos::RangingRequest request{{{1}, 0}, {{2}, 0}};
  mathx::Rng rng(42);
  auto session = eng.open_session(rng, {.queue_depth = 2, .threads = 2});
  EXPECT_EQ(session.queue_depth(), 2u);

  // Admit up to the depth while the gate holds every worker...
  const auto t0 = session.try_submit(request);
  const auto t1 = session.try_submit(request);
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t0.value(), 0u);
  EXPECT_EQ(t1.value(), 1u);
  EXPECT_EQ(session.in_flight(), 2u);

  // ...then the bounded queue pushes back: kQueueFull, immediately, with
  // nothing enqueued and nothing dropped.
  for (int i = 0; i < 3; ++i) {
    const auto rejected = session.try_submit(request);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), chronos::StatusCode::kQueueFull);
  }
  EXPECT_EQ(session.submitted(), 2u);
  EXPECT_FALSE(session.next_ready());

  // Capacity is checked before resolution (rejection is the hot path), so
  // even an unresolvable request sees kQueueFull while the queue is full.
  const auto unknown_while_full = session.try_submit({{{9}, 0}, {{2}, 0}});
  EXPECT_EQ(unknown_while_full.status().code(),
            chronos::StatusCode::kQueueFull);

  gated->release();
  const auto results = session.drain();
  ASSERT_EQ(results.size(), 2u);  // never drops silently
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[1].status.ok());

  // With room in the queue, a resolution failure is reported as itself —
  // it consumes no slot and no ticket.
  const auto unknown = session.try_submit({{{9}, 0}, {{2}, 0}});
  EXPECT_EQ(unknown.status().code(), chronos::StatusCode::kUnknownNode);
  EXPECT_EQ(session.submitted(), 2u);

  // Space is back: the producer can continue.
  const auto t2 = session.try_submit(request);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2.value(), 2u);
  (void)session.drain();
}

TEST(ApiSession, BlockingSubmitWaitsForASlot) {
  auto inner =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  inner->add_node(chronos::NodeId{1}, sim::make_mobile({2.0, 2.0}, 5));
  inner->add_node(chronos::NodeId{2}, sim::make_mobile({7.0, 5.0}, 6));
  auto gated = std::make_shared<GatedSource>(inner);
  const Engine eng = Engine::adopt(gated);

  const chronos::RangingRequest request{{{1}, 0}, {{2}, 0}};
  mathx::Rng rng(7);
  auto session = eng.open_session(rng, {.queue_depth = 1, .threads = 1});
  ASSERT_TRUE(session.submit(request).ok());
  EXPECT_EQ(session.try_submit(request).status().code(),
            chronos::StatusCode::kQueueFull);

  // Free the slot from another thread; the blocking submit must then be
  // admitted with the next ticket.
  std::thread releaser([&] { gated->release(); });
  const auto ticket = session.submit(request);
  releaser.join();
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket.value(), 1u);
  const auto results = session.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[1].status.ok());
}

TEST(ApiSession, StreamedSubmissionMatchesBatchBitExactly) {
  // A session fed one request at a time is bit-identical to measure_batch
  // over the same requests on the same rng state (shared fork tag + per-
  // ticket split streams).
  auto src =
      std::make_shared<SimSweepSource>(sim::office_20x20(), fast_link());
  src->add_node(chronos::NodeId{1}, sim::make_mobile({2.0, 2.0}, 5));
  src->add_node(chronos::NodeId{2}, sim::make_laptop({9.0, 6.0}, 0.3, 6));
  const Engine eng = Engine::adopt(src);

  std::vector<chronos::RangingRequest> requests;
  for (std::size_t a = 0; a < 3; ++a) {
    requests.push_back({{{1}, 0}, {{2}, a}});
  }

  mathx::Rng rng_batch(123);
  const auto batch = eng.measure_batch(requests, rng_batch, BatchOptions{1});

  mathx::Rng rng_stream(123);
  auto session = eng.open_session(rng_stream, {.queue_depth = 1, .threads = 2});
  std::vector<RangingResult> streamed;
  for (const auto& request : requests) {
    ASSERT_TRUE(session.submit(request).ok());
    streamed.push_back(session.next());  // collect immediately: depth 1
  }
  ASSERT_EQ(streamed.size(), batch.results.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    expect_bitwise_equal(streamed[i], batch.results[i]);
  }
  // Both paths advanced the caller's stream by exactly one fork().
  EXPECT_EQ(rng_batch.uniform(0.0, 1.0), rng_stream.uniform(0.0, 1.0));
}

// ---------------------------------------------------------------------------
// Engine factories (what umbrella-header clients see)
// ---------------------------------------------------------------------------

TEST(ApiFacade, CreateSimulatedValidatesDeployment) {
  chronos::SimDeployment dup;
  dup.nodes = {{chronos::NodeId{1}, {{0.0, 0.0}}},
               {chronos::NodeId{1}, {{1.0, 0.0}}}};
  EXPECT_EQ(chronos::Engine::create_simulated(dup).status().code(),
            chronos::StatusCode::kInvalidArgument);

  chronos::SimDeployment empty_antennas;
  empty_antennas.nodes = {{chronos::NodeId{1}, {}}};
  EXPECT_EQ(chronos::Engine::create_simulated(empty_antennas).status().code(),
            chronos::StatusCode::kInvalidArgument);
}

TEST(ApiFacade, NodeSpecSeedsTheDevicesRippleTable) {
  // A node registered by id alone gets the radio personality of its id:
  // the chain ripple table equals the per-call derivation on that seed,
  // bit for bit, on every band of the US plan.
  auto src = std::make_shared<SimSweepSource>(sim::anechoic(),
                                              sim::LinkSimConfig{});
  chronos::Engine engine = chronos::Engine::adopt(src);
  const chronos::NodeId id{90210};
  ASSERT_TRUE(engine.add_node({id, {{1.0, 2.0}, {1.3, 2.0}}}).ok());
  const auto resolved = src->resolve({{id, 1}, {id, 0}});
  ASSERT_TRUE(resolved.ok());
  const sim::Device& device = resolved.value().tx;
  EXPECT_EQ(device.hardware_seed(), id.value);
  ASSERT_EQ(device.antennas.size(), 2u);
  for (std::size_t b = 0; b < phy::kUsPlanBands; ++b) {
    mathx::Rng rng(id.value);
    const double want = rng.fork(b + 1).normal(0.0, sim::kBandRippleStdRad);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(device.chain_ripple_rad(b)),
              std::bit_cast<std::uint64_t>(want))
        << "band " << b;
  }
}

TEST(ApiFacade, ConcurrentRegistrationGivesEachNodeItsSeedsTable) {
  // add_node is thread-safe, and registering builds devices, which look
  // their seed's ripple table up or derive it: four threads registering
  // overlapping ids must leave every node with its own seed's table.
  auto src = std::make_shared<SimSweepSource>(sim::anechoic(),
                                              sim::LinkSimConfig{});
  chronos::Engine engine = chronos::Engine::adopt(src);
  constexpr std::uint64_t kFirstId = 77000;
  constexpr std::uint64_t kIds = 24;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&engine, t] {
      for (std::uint64_t i = 0; i < kIds; ++i) {
        const chronos::NodeId id{kFirstId + (i + 5 * t) % kIds};
        EXPECT_TRUE(engine.add_node({id, {{0.0, 0.0}}}).ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::uint64_t i = 0; i < kIds; ++i) {
    const chronos::NodeId id{kFirstId + i};
    const auto resolved = src->resolve({{id, 0}, {id, 0}});
    ASSERT_TRUE(resolved.ok());
    mathx::Rng rng(id.value);
    const double want = rng.fork(7).normal(0.0, sim::kBandRippleStdRad);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  resolved.value().tx.chain_ripple_rad(6)),
              std::bit_cast<std::uint64_t>(want))
        << "node " << id.value;
  }
}

TEST(ApiFacade, EndToEndMeasureAndSession) {
  chronos::SimDeployment dep;
  dep.environment = chronos::SimEnvironment::kAnechoic;
  dep.nodes = {{chronos::NodeId{1}, {{0.0, 0.0}}},
               {chronos::NodeId{2}, {{6.0, 0.0}}}};
  auto built = chronos::Engine::create_simulated(dep);
  ASSERT_TRUE(built.ok());
  chronos::Engine engine = std::move(built).value();
  EXPECT_TRUE(engine.valid());
  EXPECT_EQ(engine.backend_name(), "sim");
  EXPECT_EQ(engine.registry().nodes().size(), 2u);

  mathx::Rng rng(2016);
  ASSERT_TRUE(engine.calibrate(chronos::NodeId{1}, chronos::NodeId{2},
                               rng).ok());
  const auto measured =
      engine.measure({{chronos::NodeId{1}, 0}, {chronos::NodeId{2}, 0}}, rng);
  ASSERT_TRUE(measured.ok());
  EXPECT_TRUE(measured.value().peak_found);
  EXPECT_NEAR(measured.value().distance_m, 6.0, 0.5);

  // Registration after construction, and typed errors for bad specs.
  EXPECT_TRUE(engine.add_node({chronos::NodeId{3}, {{2.0, 2.0}}}).ok());
  EXPECT_EQ(engine.add_node({chronos::NodeId{3}, {}}).code(),
            chronos::StatusCode::kInvalidArgument);

  // Streamed ingestion through a session.
  auto session = engine.open_session(rng, {.queue_depth = 4, .threads = 2});
  ASSERT_TRUE(session.valid());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        session
            .submit({{chronos::NodeId{1}, 0}, {chronos::NodeId{2}, 0}})
            .ok());
  }
  const auto streamed = session.drain();
  ASSERT_EQ(streamed.size(), 3u);
  for (const auto& r : streamed) EXPECT_TRUE(r.status.ok());
}

}  // namespace
}  // namespace chronos::core
