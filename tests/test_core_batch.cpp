// The determinism contract of the batched ranging runtime: batching with N
// worker threads is bit-identical to the 1-thread sequential loop, for any
// seed, batch size, and thread count. This is the property that makes the
// worker pool safe to adopt everywhere — parallelism can never change a
// result, only the wall clock.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep_source.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"

namespace chronos::core {
namespace {

/// A reduced sweep plan (every 5th US band, one exchange) keeps each request
/// cheap; determinism does not depend on the plan.
sim::LinkSimConfig fast_link() {
  sim::LinkSimConfig c;
  const auto& plan = phy::us_band_plan();
  for (std::size_t i = 0; i < plan.size(); i += 5) {
    c.bands.push_back(plan[i]);
  }
  c.exchanges_per_band = 1;
  return c;
}

/// A simulator engine on the reduced plan; `source` keeps the writable
/// node directory the requests are registered in.
struct Rig {
  std::shared_ptr<SimSweepSource> source;
  Engine engine;
};

Rig make_rig(sim::Environment env) {
  auto source = std::make_shared<SimSweepSource>(std::move(env), fast_link());
  return {source, Engine::adopt(source)};
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
  ASSERT_EQ(a.profile.peaks.size(), b.profile.peaks.size());
  for (std::size_t i = 0; i < a.profile.peaks.size(); ++i) {
    EXPECT_EQ(a.profile.peaks[i].delay_s, b.profile.peaks[i].delay_s);
    EXPECT_EQ(a.profile.peaks[i].amplitude, b.profile.peaks[i].amplitude);
  }
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].delay_s, b.candidates[i].delay_s);
    EXPECT_EQ(a.candidates[i].matched_filter, b.candidates[i].matched_filter);
    EXPECT_EQ(a.candidates[i].accepted, b.candidates[i].accepted);
  }
}

TEST(BatchDeterminism, ThreadCountNeverChangesResults) {
  const Rig rig = make_rig(sim::office_20x20());
  const Engine& eng = rig.engine;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    for (const std::size_t batch_size : {1u, 5u, 12u}) {
      const auto requests = make_requests(*rig.source, batch_size);

      mathx::Rng rng_seq(seed);
      const auto sequential =
          eng.measure_batch(requests, rng_seq, BatchOptions{1});
      EXPECT_EQ(sequential.threads_used, 1);

      for (const int threads : {2, 4, 8}) {
        mathx::Rng rng_par(seed);
        const auto parallel =
            eng.measure_batch(requests, rng_par, BatchOptions{threads});
        ASSERT_EQ(parallel.results.size(), sequential.results.size());
        for (std::size_t i = 0; i < parallel.results.size(); ++i) {
          expect_bitwise_equal(parallel.results[i], sequential.results[i]);
        }
        // The caller's stream advances identically too, so code *after* a
        // batch stays reproducible regardless of the pool size used.
        EXPECT_EQ(rng_seq.uniform(0.0, 1.0), rng_par.uniform(0.0, 1.0));
        rng_seq = mathx::Rng(seed);
        (void)eng.measure_batch(requests, rng_seq, BatchOptions{1});
      }
    }
  }
}

TEST(BatchDeterminism, MatchesManualSequentialSplitLoop) {
  // The documented contract, spelled out: request i is ranged on stream
  // base.split(i) where base = rng.fork(tag). Reproduce it by hand via two
  // identically-seeded batches and compare.
  const Rig rig = make_rig(sim::office_20x20());
  const auto requests = make_requests(*rig.source, 6);

  mathx::Rng rng_a(123);
  const auto batch = rig.engine.measure_batch(requests, rng_a, BatchOptions{4});

  mathx::Rng rng_b(123);
  const auto again = rig.engine.measure_batch(requests, rng_b, BatchOptions{1});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_bitwise_equal(batch.results[i], again.results[i]);
  }
}

TEST(BatchDeterminism, SuccessiveBatchesDiffer) {
  // fork() advances the caller's stream, so re-running the same batch on
  // the same Rng draws fresh noise (batches are not accidentally replayed).
  const Rig rig = make_rig(sim::anechoic());
  const auto requests = make_requests(*rig.source, 2);
  mathx::Rng rng(5);
  const auto first = rig.engine.measure_batch(requests, rng);
  const auto second = rig.engine.measure_batch(requests, rng);
  EXPECT_NE(first.results[0].tof_s, second.results[0].tof_s);
}

TEST(BatchDeterminism, EmptyBatchIsValid) {
  const Rig rig = make_rig(sim::anechoic());
  mathx::Rng rng(1);
  const auto out =
      rig.engine.measure_batch(std::vector<RangingRequest>{}, rng);
  EXPECT_TRUE(out.results.empty());
}

TEST(BatchDeterminism, BadRequestYieldsStatusNotAbort) {
  // API v2: one request the backend cannot serve gets its own non-ok
  // status; the other results are untouched and no exception escapes.
  const Rig rig = make_rig(sim::anechoic());
  std::vector<RangingRequest> requests = make_requests(*rig.source, 3);
  requests[1].tx.antenna = 99;  // out of range -> status, not a throw
  mathx::Rng rng(1);
  const auto batch = rig.engine.measure_batch(requests, rng, BatchOptions{4});
  ASSERT_EQ(batch.results.size(), requests.size());
  EXPECT_TRUE(batch.results[0].status.ok());
  EXPECT_EQ(batch.results[1].status.code(),
            chronos::StatusCode::kAntennaOutOfRange);
  EXPECT_FALSE(batch.results[1].peak_found);
  EXPECT_TRUE(batch.results[2].status.ok());
  EXPECT_TRUE(batch.results[0].peak_found);
}

/// Forwards to `inner`, except that sweep_for throws for every request
/// from transmitter `poisoned`: a planted backend defect.
class ThrowingSweepSource final : public SweepSource {
 public:
  ThrowingSweepSource(std::shared_ptr<const SweepSource> inner,
                      std::uint64_t poisoned)
      : inner_(std::move(inner)), poisoned_(poisoned) {}

  bool has_node(NodeId id) const override { return inner_->has_node(id); }
  Result<std::size_t> antenna_count(NodeId id) const override {
    return inner_->antenna_count(id);
  }
  std::vector<NodeId> nodes() const override { return inner_->nodes(); }
  Result<ResolvedRequest> resolve(
      const RangingRequest& request) const override {
    return inner_->resolve(request);
  }
  Result<phy::SweepMeasurement> sweep_for(const ResolvedRequest& req,
                                          mathx::Rng& rng) const override {
    if (req.tx.hardware_seed() == poisoned_) {
      throw std::runtime_error("planted sweep_for defect");
    }
    return inner_->sweep_for(req, rng);
  }
  const std::vector<phy::WifiBand>& bands() const override {
    return inner_->bands();
  }
  bool has_geometry() const override { return inner_->has_geometry(); }
  std::string backend_name() const override { return "throwing"; }

 private:
  std::shared_ptr<const SweepSource> inner_;
  std::uint64_t poisoned_;
};

TEST(BatchDeterminism, OneThrowFailsOnlyItsOwnTicket) {
  // api.hpp: one bad request yields one bad status, not an aborted batch.
  // A throw from the backend fails the ticket that raised it (kInternal)
  // and leaves every other slot bit-identical to the same batch on the
  // clean backend, inline and on the pool alike.
  const Rig rig = make_rig(sim::office_20x20());
  const auto requests = make_requests(*rig.source, 5);
  constexpr std::size_t kPoisoned = 2;  // transmitter node 100 + 2
  const Engine throwing = Engine::adopt(
      std::make_shared<ThrowingSweepSource>(rig.source, 100 + kPoisoned));
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    mathx::Rng rng_clean(21);
    const auto clean =
        rig.engine.measure_batch(requests, rng_clean, BatchOptions{threads});
    mathx::Rng rng(21);
    const auto batch =
        throwing.measure_batch(requests, rng, BatchOptions{threads});
    ASSERT_EQ(batch.results.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const RangingResult& got = batch.results[i];
      if (i == kPoisoned) {
        EXPECT_EQ(got.status.code(), chronos::StatusCode::kInternal);
        EXPECT_EQ(got.status.message(), "planted sweep_for defect");
        continue;
      }
      EXPECT_TRUE(got.status.ok());
      expect_bitwise_equal(got, clean.results[i]);
    }
  }
}

/// Opens a session deep enough for `requests` and admits them all without
/// collecting anything: an asynchronous batch in flight.
RangingSession submit_all(const Engine& eng,
                          const std::vector<RangingRequest>& requests,
                          mathx::Rng& rng, int threads) {
  auto session = eng.open_session(
      rng, {.queue_depth = requests.size(), .threads = threads});
  for (const auto& request : requests) {
    EXPECT_TRUE(session.submit(request).ok());
  }
  return session;
}

TEST(BatchSession, UndrainedSessionMatchesSynchronousMeasureBatch) {
  // The async path (a session admitted now, drained later) must be
  // bit-identical to the synchronous call on the same seed — including
  // how far it advances the caller's rng.
  const Rig rig = make_rig(sim::office_20x20());
  const auto requests = make_requests(*rig.source, 8);

  mathx::Rng rng_sync(77);
  const auto sync = rig.engine.measure_batch(requests, rng_sync, BatchOptions{1});

  mathx::Rng rng_async(77);
  auto session = submit_all(rig.engine, requests, rng_async, 4);
  EXPECT_EQ(session.submitted(), requests.size());
  const auto async = session.drain();

  ASSERT_EQ(async.size(), sync.results.size());
  for (std::size_t i = 0; i < async.size(); ++i) {
    expect_bitwise_equal(async[i], sync.results[i]);
  }
  EXPECT_EQ(rng_sync.uniform(0.0, 1.0), rng_async.uniform(0.0, 1.0));
}

TEST(BatchSession, UndrainedSessionsCollectInReverseOrder) {
  // Pipelined ingestion: several sessions in flight at once, drained in
  // reverse admission order, each bit-identical to measure_batch on its
  // seed. The sessions all share the engine's persistent pool.
  const Rig rig = make_rig(sim::office_20x20());
  constexpr std::size_t kSessions = 3;

  std::vector<std::vector<RangingRequest>> requests;
  std::vector<BatchResult> reference;
  for (std::size_t b = 0; b < kSessions; ++b) {
    requests.push_back(make_requests(*rig.source, 3 + b));
    mathx::Rng rng(1000 + b);
    reference.push_back(
        rig.engine.measure_batch(requests[b], rng, BatchOptions{1}));
  }

  std::vector<RangingSession> sessions;
  for (std::size_t b = 0; b < kSessions; ++b) {
    mathx::Rng rng(1000 + b);
    sessions.push_back(submit_all(rig.engine, requests[b], rng, 2));
  }
  for (std::size_t b = kSessions; b-- > 0;) {
    const auto out = sessions[b].drain();
    ASSERT_EQ(out.size(), reference[b].results.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      expect_bitwise_equal(out[i], reference[b].results[i]);
    }
  }
}

TEST(BatchSession, PersistentPoolStartsLazilyAndNeverShrinks) {
  const Rig rig = make_rig(sim::office_20x20());
  const Engine& eng = rig.engine;
  EXPECT_EQ(eng.session_threads(), 0u);  // nothing batched yet

  const auto requests = make_requests(*rig.source, 6);
  mathx::Rng rng(3);
  (void)eng.measure_batch(requests, rng, BatchOptions{1});
  EXPECT_EQ(eng.session_threads(), 0u);  // inline path never starts a pool

  (void)eng.measure_batch(requests, rng, BatchOptions{3});
  EXPECT_EQ(eng.session_threads(), 3u);

  (void)eng.measure_batch(requests, rng, BatchOptions{2});
  EXPECT_EQ(eng.session_threads(), 3u);  // smaller request reuses workers

  (void)eng.measure_batch(requests, rng, BatchOptions{5});
  EXPECT_EQ(eng.session_threads(), 5u);  // growth by replacement
}

TEST(BatchSession, SingleThreadBatchesAndLocatesStartNoPool) {
  // BatchOptions{1} ranges on the calling thread: callers on several
  // threads must never queue behind one shared worker.
  Rig rig = make_rig(sim::office_20x20());
  const auto requests = make_requests(*rig.source, 9);
  rig.source->add_node(NodeId{11}, sim::make_laptop({0.0, 0.0}, 0.3, 11));
  rig.source->add_node(NodeId{22}, sim::make_laptop({1.5, 0.0}, 0.3, 22));
  rig.source->add_node(NodeId{50}, sim::make_laptop({4.0, 3.0}, 0.3, 11));
  mathx::Rng rng(17);
  ASSERT_TRUE(rig.engine.calibrate(NodeId{11}, NodeId{22}, rng).ok());

  const auto batch = rig.engine.measure_batch(requests, rng, BatchOptions{1});
  EXPECT_EQ(batch.threads_used, 1);
  const auto located = rig.engine.locate(NodeId{50}, NodeId{22}, rng,
                                         std::nullopt, BatchOptions{1});
  ASSERT_TRUE(located.ok());
  EXPECT_EQ(located.value().details.size(), 9u);
  EXPECT_EQ(rig.engine.session_threads(), 0u);
}

TEST(BatchSession, DroppedSessionIsSafe) {
  // Destroying a session without draining it must not crash, deadlock, or
  // disturb later batches (jobs finish against the shared pool and their
  // results are dropped).
  const Rig rig = make_rig(sim::office_20x20());
  const auto requests = make_requests(*rig.source, 5);
  {
    mathx::Rng rng(33);
    auto session = submit_all(rig.engine, requests, rng, 2);
    (void)session;
  }
  mathx::Rng rng_seq(34);
  const auto sequential =
      rig.engine.measure_batch(requests, rng_seq, BatchOptions{1});
  mathx::Rng rng_par(34);
  const auto parallel =
      rig.engine.measure_batch(requests, rng_par, BatchOptions{4});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expect_bitwise_equal(parallel.results[i], sequential.results[i]);
  }
}

TEST(BatchSession, SessionDrainedAfterEngineDiesMatchesMeasureBatch) {
  // Sessions are self-contained: they co-own the pool, source, pipeline,
  // and calibration, so draining after the engine died is legal and
  // bit-identical.
  RangingSession session;
  BatchResult reference;
  std::size_t n = 0;
  {
    const Rig rig = make_rig(sim::office_20x20());
    const auto requests = make_requests(*rig.source, 4);
    n = requests.size();
    mathx::Rng rng_ref(55);
    reference = rig.engine.measure_batch(requests, rng_ref, BatchOptions{1});
    mathx::Rng rng(55);
    session = submit_all(rig.engine, requests, rng, 2);
  }  // engine destroyed while the session may still be in flight
  const auto out = session.drain();
  ASSERT_EQ(out.size(), n);
  ASSERT_EQ(out.size(), reference.results.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    expect_bitwise_equal(out[i], reference.results[i]);
  }
}

TEST(BatchSession, BadRequestIsRejectedAtAdmission) {
  // A streamed request that fails resolution is rejected synchronously,
  // takes no ticket, and leaves its neighbours' tickets and streams as if
  // it had never been offered.
  const Rig rig = make_rig(sim::anechoic());
  std::vector<RangingRequest> requests = make_requests(*rig.source, 3);
  RangingRequest bad = requests[1];
  bad.tx.antenna = 99;

  mathx::Rng rng(1);
  auto session = rig.engine.open_session(rng, {.queue_depth = 4, .threads = 2});
  ASSERT_TRUE(session.submit(requests[0]).ok());
  EXPECT_EQ(session.submit(bad).status().code(),
            chronos::StatusCode::kAntennaOutOfRange);
  ASSERT_TRUE(session.submit(requests[2]).ok());
  const auto out = session.drain();
  ASSERT_EQ(out.size(), 2u);

  const std::vector<RangingRequest> good = {requests[0], requests[2]};
  mathx::Rng rng_ref(1);
  const auto reference = rig.engine.measure_batch(good, rng_ref, BatchOptions{1});
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].status.ok());
    expect_bitwise_equal(out[i], reference.results[i]);
  }
}

TEST(BatchDeterminism, LocateBatchIsThreadCountInvariant) {
  Rig rig = make_rig(sim::office_20x20());
  rig.source->add_node(NodeId{11}, sim::make_laptop({0.0, 0.0}, 0.3, 11));
  rig.source->add_node(NodeId{22}, sim::make_laptop({10.0, 12.0}, 0.3, 22));
  mathx::Rng cal_rng(9);
  ASSERT_TRUE(rig.engine.calibrate(NodeId{11}, NodeId{22}, cal_rng).ok());

  std::vector<LocateRequest> jobs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const double x = 3.0 + 2.0 * static_cast<double>(i);
    rig.source->add_node(NodeId{50 + i}, sim::make_mobile({x, 4.0}, 50 + i));
    jobs.push_back({NodeId{50 + i}, NodeId{22}, std::nullopt});
  }

  mathx::Rng rng_seq(31);
  const auto sequential = rig.engine.locate_batch(jobs, rng_seq, BatchOptions{1});
  mathx::Rng rng_par(31);
  const auto parallel = rig.engine.locate_batch(jobs, rng_par, BatchOptions{8});

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(sequential[i].status.ok());
    EXPECT_EQ(sequential[i].result.valid, parallel[i].result.valid);
    EXPECT_EQ(sequential[i].result.position.x, parallel[i].result.position.x);
    EXPECT_EQ(sequential[i].result.position.y, parallel[i].result.position.y);
    ASSERT_EQ(sequential[i].details.size(), parallel[i].details.size());
    for (std::size_t k = 0; k < sequential[i].details.size(); ++k) {
      expect_bitwise_equal(sequential[i].details[k], parallel[i].details[k]);
    }
  }
}

}  // namespace
}  // namespace chronos::core
