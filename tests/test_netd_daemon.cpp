// chronosd end-to-end over the loopback transport: the determinism
// contract must survive the wire. A multi-client run against the sharded
// daemon — at shard counts 1, 2, and 4, with queue depths small enough to
// force kQueueFull wire retries — must produce replies bit-identical to
// the equivalent in-process measure_batch over the daemon's admitted-
// request log on the same seed (ticket i == split stream i, whatever
// shard computed it).
//
// Also pinned here: the NodeId->shard router (exact mix64 values and
// distribution — changing the constants silently re-routes every
// deployment), the one hostile pipeline every shard shares, the one
// worker pool every shard ranges on, serve() waking for attaches, replies
// and hang-ups, the connection table forgetting finished clients, the
// HelloAck field bounds, and connection poisoning on malformed frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "netd/loopback.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"

namespace chronos::netd {
namespace {

/// Reduced sweep plan (every 5th US band, one exchange): cheap sweeps;
/// nothing the daemon layer does depends on the plan.
sim::LinkSimConfig fast_link() {
  sim::LinkSimConfig c;
  const auto& plan = phy::us_band_plan();
  for (std::size_t i = 0; i < plan.size(); i += 5) {
    c.bands.push_back(plan[i]);
  }
  c.exchanges_per_band = 1;
  return c;
}

/// A calibrated sim backend with `n_pairs` registered device pairs spread
/// over the office floor, plus the reference engine sharing it.
struct Fixture {
  std::shared_ptr<core::SimSweepSource> source;
  Engine engine;
  std::vector<chronos::RangingRequest> requests;
};

Fixture make_fixture(std::size_t n_pairs, bool hostile) {
  Fixture f;
  EngineOptions options;
  if (hostile) options.ranging.integrity = core::IntegrityConfig::hostile();
  f.source =
      std::make_shared<core::SimSweepSource>(sim::office_20x20(), fast_link());
  f.engine = Engine::adopt(f.source, options);
  mathx::Rng cal_rng(99);
  f.source->add_node(chronos::NodeId{9001},
                     sim::make_mobile({0.0, 0.0}, 11));
  f.source->add_node(chronos::NodeId{9002},
                     sim::make_mobile({1.0, 0.0}, 22));
  EXPECT_TRUE(
      f.engine.calibrate(chronos::NodeId{9001}, chronos::NodeId{9002},
                          cal_rng)
          .ok());
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const double x = 2.0 + 1.5 * static_cast<double>(i % 8);
    const double y = 3.0 + 2.0 * static_cast<double>(i / 8);
    const chronos::NodeId tx{100 + i}, rx{500 + i};
    f.source->add_node(tx, sim::make_mobile({x, y}, 11));
    f.source->add_node(rx, sim::make_mobile({x + 2.0, y + 1.0}, 22));
    f.requests.push_back({{tx, 0}, {rx, 0}});
  }
  return f;
}

void expect_reply_matches(const RangingReply& got, const RangingReply& want) {
  EXPECT_EQ(got.status.code(), want.status.code());
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.peak_found, want.peak_found);
  EXPECT_EQ(got.solver_iterations, want.solver_iterations);
  EXPECT_EQ(std::memcmp(&got.tof_s, &want.tof_s, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.distance_m, &want.distance_m, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&got.toa_s, &want.toa_s, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&got.detection_delay_s, &want.detection_delay_s,
                        sizeof(double)),
            0);
}

/// Every admission is counted once per view: the shards' local tickets
/// sum to the global ticket count, which is the admitted log's length.
void expect_admission_counts_agree(const ChronosDaemon& daemon) {
  std::size_t shard_sum = 0;
  for (const std::size_t n : daemon.shard_admitted()) shard_sum += n;
  EXPECT_EQ(shard_sum, daemon.stats().admitted);
  EXPECT_EQ(daemon.stats().admitted, daemon.admitted_requests().size());
}

// ---------------------------------------------------------------------------
// The tentpole: wire bit-identity under shard counts {1, 2, 4}
// ---------------------------------------------------------------------------

void run_bit_identity(std::size_t shards, std::size_t depth,
                      std::size_t clients, std::size_t per_client,
                      std::size_t shard_threads = 1) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " depth=" + std::to_string(depth) +
               " threads=" + std::to_string(shard_threads));
  Fixture f = make_fixture(clients * per_client, /*hostile=*/true);

  DaemonOptions opt;
  opt.shards = shards;
  opt.shard_queue_depth = depth;
  opt.shard_threads = shard_threads;
  constexpr std::uint64_t kSeed = 1234;
  mathx::Rng daemon_rng(kSeed);
  ChronosDaemon daemon(f.source, core::RangingConfig{}, f.engine.calibration(),
                       daemon_rng, opt);
  ASSERT_EQ(daemon.shards(), shards);

  std::vector<std::shared_ptr<Stream>> ends;
  for (std::size_t c = 0; c < clients; ++c) {
    auto [client_end, daemon_end] = make_loopback();
    daemon.attach(daemon_end);
    ends.push_back(client_end);
  }

  std::vector<std::vector<RangingReply>> replies(clients);
  std::vector<std::uint64_t> retries(clients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      ChronosClient client(ends[c]);
      ASSERT_TRUE(client.connect().ok());
      EXPECT_EQ(client.server_shards(), shards);
      EXPECT_EQ(client.server_queue_depth(), depth);
      for (std::size_t i = 0; i < per_client; ++i) {
        ASSERT_TRUE(client.submit(f.requests[c * per_client + i]).ok());
      }
      replies[c] = client.drain();
      retries[c] = client.total_wire_retries();
      EXPECT_TRUE(client.close().ok());
    });
  }
  daemon.serve();
  for (auto& t : threads) t.join();

  // Every submission was eventually admitted and answered.
  const auto& admitted = daemon.admitted_requests();
  ASSERT_EQ(admitted.size(), clients * per_client);
  ASSERT_EQ(daemon.stats().admitted, clients * per_client);
  expect_admission_counts_agree(daemon);

  // The equivalence target: the in-process batch over the admitted log on
  // the daemon's seed (same single rng fork, same split streams).
  mathx::Rng batch_rng(kSeed);
  const auto batch = f.engine.measure_batch(admitted, batch_rng, {});

  std::size_t checked = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    ASSERT_EQ(replies[c].size(), per_client);
    for (std::size_t i = 0; i < per_client; ++i) {
      const chronos::RangingRequest& request = f.requests[c * per_client + i];
      std::size_t slot = admitted.size();
      for (std::size_t g = 0; g < admitted.size(); ++g) {
        if (admitted[g] == request) slot = g;
      }
      ASSERT_LT(slot, admitted.size());
      expect_reply_matches(replies[c][i], reply_of(batch.results[slot]));
      ++checked;
    }
  }
  EXPECT_EQ(checked, clients * per_client);

  // With a single shard of depth 1 and whole plans submitted up front,
  // backpressure is unavoidable — prove the retry path actually ran.
  if (shards == 1 && depth == 1 && clients * per_client > 1) {
    EXPECT_GT(daemon.stats().queue_full_rejections, 0u);
    std::uint64_t total_retries = 0;
    for (const std::uint64_t r : retries) total_retries += r;
    EXPECT_GT(total_retries, 0u);
  }
}

TEST(ChronosDaemon, WireBitIdentityOneShard) {
  run_bit_identity(/*shards=*/1, /*depth=*/1, /*clients=*/2,
                   /*per_client=*/3);
}

TEST(ChronosDaemon, WireBitIdentityTwoShards) {
  run_bit_identity(/*shards=*/2, /*depth=*/2, /*clients=*/3,
                   /*per_client=*/2);
}

TEST(ChronosDaemon, WireBitIdentityFourShards) {
  run_bit_identity(/*shards=*/4, /*depth=*/1, /*clients=*/2,
                   /*per_client=*/4);
}

TEST(ChronosDaemon, WireBitIdentityTwoWorkersPerShard) {
  // A pool of 6 workers over 3 shards: a shard's requests run on any of
  // them at once, and still reply in order with the batch's bits.
  run_bit_identity(/*shards=*/3, /*depth=*/3, /*clients=*/3,
                   /*per_client=*/3, /*shard_threads=*/2);
}

// ---------------------------------------------------------------------------
// One worker pool under every shard
// ---------------------------------------------------------------------------

/// Forwards to a sim source, but holds the first sweep_for until a second
/// one is in flight, for at most kHold, and records the most sweeps it saw
/// in flight at once.
class RendezvousSource final : public core::SweepSource {
 public:
  static constexpr std::chrono::seconds kHold{5};

  explicit RendezvousSource(std::shared_ptr<core::SimSweepSource> inner)
      : inner_(std::move(inner)) {}

  int peak_in_flight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

  chronos::Result<phy::SweepMeasurement> sweep_for(
      const core::ResolvedRequest& req, mathx::Rng& rng) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++in_flight_;
      peak_ = std::max(peak_, in_flight_);
      cv_.notify_all();
      if (!held_) {
        held_ = true;
        cv_.wait_for(lock, kHold, [&] { return peak_ >= 2; });
      }
    }
    auto sweep = inner_->sweep_for(req, rng);
    std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    return sweep;
  }
  chronos::Result<core::ResolvedRequest> resolve(
      const chronos::RangingRequest& request) const override {
    return inner_->resolve(request);
  }
  const std::vector<phy::WifiBand>& bands() const override {
    return inner_->bands();
  }
  bool has_geometry() const override { return inner_->has_geometry(); }
  std::string backend_name() const override { return "rendezvous-sim"; }
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
  std::shared_ptr<core::SimSweepSource> inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable int in_flight_ = 0;
  mutable int peak_ = 0;
  mutable bool held_ = false;
};

TEST(ChronosDaemon, OneShardRangesTwoRequestsAtOnce) {
  // Two shards of one worker each make a pool of two. Two requests routed
  // to ONE shard must then range at the same time: with a worker pool per
  // shard the second would queue behind the first, which the source holds
  // until the bounded wait runs out.
  Fixture f = make_fixture(8, /*hostile=*/false);
  auto source = std::make_shared<RendezvousSource>(f.source);
  DaemonOptions opt;
  opt.shards = 2;
  opt.shard_queue_depth = 2;
  opt.shard_threads = 1;
  opt.trusted_clients = true;  // match the fixture engine's config exactly
  constexpr std::uint64_t kSeed = 31;
  mathx::Rng rng(kSeed);
  ChronosDaemon daemon(source, core::RangingConfig{}, f.engine.calibration(),
                       rng, opt);

  std::vector<chronos::RangingRequest> same_shard;
  for (const auto& request : f.requests) {
    if (daemon.shard_of_node(request.tx.node) ==
        daemon.shard_of_node(f.requests.front().tx.node)) {
      same_shard.push_back(request);
    }
  }
  ASSERT_GE(same_shard.size(), 2u);
  same_shard.resize(2);

  auto [client_end, daemon_end] = make_loopback();
  daemon.attach(daemon_end);
  std::vector<RangingReply> replies;
  std::thread client([&, end = client_end]() {
    ChronosClient c(end);
    ASSERT_TRUE(c.connect().ok());
    for (const auto& request : same_shard) ASSERT_TRUE(c.submit(request).ok());
    replies = c.drain();
    EXPECT_TRUE(c.close().ok());
  });
  daemon.serve();
  client.join();

  EXPECT_EQ(source->peak_in_flight(), 2);
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_EQ(daemon.admitted_requests(), same_shard);
  mathx::Rng batch_rng(kSeed);
  const auto batch = f.engine.measure_batch(same_shard, batch_rng, {});
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(replies[i].status.ok());
    expect_reply_matches(replies[i], reply_of(batch.results[i]));
  }
}

// ---------------------------------------------------------------------------
// What wakes serve(), and what it forgets
// ---------------------------------------------------------------------------

/// A transport with no way to wake a sleeping reader (Stream's default
/// set_wake).
class SilentStream final : public Stream {
 public:
  chronos::Status send(std::span<const std::uint8_t>) override {
    return chronos::Status::Ok();
  }
  chronos::Result<std::size_t> try_recv(std::vector<std::uint8_t>&) override {
    return std::size_t{0};
  }
  chronos::Result<std::size_t> recv(std::vector<std::uint8_t>&) override {
    return std::size_t{0};
  }
  void close() override {}
  bool closed() const override { return true; }
};

TEST(ChronosDaemon, AttachRefusesAStreamThatCannotWakeServe) {
  Fixture f = make_fixture(1, /*hostile=*/false);
  mathx::Rng rng(1);
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng);
  EXPECT_THROW(daemon.attach(std::make_shared<SilentStream>()),
               std::invalid_argument);
  daemon.serve();  // nothing was attached: returns at once
  EXPECT_EQ(daemon.stats().hello_frames, 0u);
}

TEST(ChronosDaemon, HangUpWithoutGoodbyeLetsServeReturn) {
  // serve() sleeps between passes, so a peer's close must wake it: a
  // client that ranges and then drops the stream without a goodbye,
  // while serve() runs, still ends it.
  Fixture f = make_fixture(1, /*hostile=*/false);
  DaemonOptions opt;
  opt.trusted_clients = true;
  mathx::Rng rng(3);
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng, opt);
  auto [client_end, daemon_end] = make_loopback();
  daemon.attach(daemon_end);
  std::thread client([&, end = client_end]() {
    ChronosClient c(end);
    ASSERT_TRUE(c.connect().ok());
    ASSERT_TRUE(c.submit(f.requests[0]).ok());
    const auto replies = c.drain();
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_TRUE(replies[0].status.ok());
    end->close();
  });
  daemon.serve();
  client.join();
  EXPECT_EQ(daemon.stats().responses_sent, 1u);
  EXPECT_EQ(daemon.connection_count(), 0u);
}

TEST(ChronosDaemon, HangUpInsideAFrameLetsServeReturn) {
  // Once the peer has closed and its bytes are drained, a partial frame
  // left in the parser can never complete: the connection is finished,
  // not waited on forever.
  Fixture f = make_fixture(1, /*hostile=*/false);
  mathx::Rng rng(4);
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng);
  auto [client_end, daemon_end] = make_loopback();
  daemon.attach(daemon_end);
  std::thread client([&, end = client_end]() {
    ChronosClient c(end);
    ASSERT_TRUE(c.connect().ok());
    std::vector<std::uint8_t> frame;
    encode_request(frame, RequestFrame{7, f.requests[0]});
    ASSERT_TRUE(end->send(std::span(frame).first(frame.size() / 2)).ok());
    end->close();
  });
  daemon.serve();
  client.join();
  EXPECT_EQ(daemon.stats().admitted, 0u);
  EXPECT_EQ(daemon.connection_count(), 0u);
}

TEST(ChronosDaemon, ConnectionTableForgetsFinishedClients) {
  // Short-lived clients come and go during one serve() while a first
  // client stays connected; each finished connection leaves the table.
  Fixture f = make_fixture(2, /*hostile=*/false);
  DaemonOptions opt;
  opt.trusted_clients = true;
  mathx::Rng rng(5);
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng, opt);
  constexpr int kShortLived = 6;

  auto [steady_end, steady_daemon_end] = make_loopback();
  daemon.attach(steady_daemon_end);
  std::vector<RangingReply> replies;
  std::thread clients([&, end = steady_end]() {
    ChronosClient steady(end);
    ASSERT_TRUE(steady.connect().ok());
    for (int k = 0; k < kShortLived; ++k) {
      auto [client_end, daemon_end] = make_loopback();
      daemon.attach(daemon_end);
      ChronosClient brief(client_end);
      ASSERT_TRUE(brief.connect().ok());
      ASSERT_TRUE(brief.submit(f.requests[1]).ok());
      for (auto& reply : brief.drain()) replies.push_back(std::move(reply));
      EXPECT_TRUE(brief.close().ok());
    }
    ASSERT_TRUE(steady.submit(f.requests[0]).ok());
    for (auto& reply : steady.drain()) replies.push_back(std::move(reply));
    EXPECT_TRUE(steady.close().ok());
  });
  daemon.serve();
  clients.join();

  ASSERT_EQ(replies.size(), kShortLived + 1u);
  for (const auto& reply : replies) EXPECT_TRUE(reply.status.ok());
  EXPECT_EQ(daemon.stats().hello_frames, kShortLived + 1u);
  EXPECT_EQ(daemon.connection_count(), 0u);
}

TEST(ChronosDaemon, OptionsBeyondTheHelloAckFieldsAreRefused) {
  // HelloAck carries the queue depth as a u32: one more would reach
  // clients as 0, so the constructor refuses it; the largest that fits
  // is advertised exactly. (The shard count's u16 bound is checked the
  // same way, but a test at 65535 shards would start 65535 workers.)
  Fixture f = make_fixture(1, /*hostile=*/false);
  constexpr std::size_t kMaxDepth = std::numeric_limits<std::uint32_t>::max();
  DaemonOptions too_deep;
  too_deep.shard_queue_depth = kMaxDepth + 1;
  mathx::Rng rng(6);
  EXPECT_THROW(
      {
        ChronosDaemon daemon(f.source, core::RangingConfig{},
                             f.engine.calibration(), rng, too_deep);
      },
      std::invalid_argument);

  DaemonOptions deepest;
  deepest.shard_queue_depth = kMaxDepth;
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng, deepest);
  auto [client_end, daemon_end] = make_loopback();
  daemon.attach(daemon_end);
  std::thread client([&, end = client_end]() {
    ChronosClient c(end);
    ASSERT_TRUE(c.connect().ok());
    EXPECT_EQ(c.server_queue_depth(), kMaxDepth);
    EXPECT_TRUE(c.close().ok());
  });
  daemon.serve();
  client.join();
}

// ---------------------------------------------------------------------------
// Shard routing
// ---------------------------------------------------------------------------

TEST(ShardRouting, Mix64ConstantsArePinned) {
  // Changing the mixer silently re-routes every deployment; these exact
  // values pin it (computed independently from the splitmix64 spec).
  EXPECT_EQ(mix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(mix64(1), 0x910A2DEC89025CC1ull);
  EXPECT_EQ(mix64(42), 0xBDD732262FEB6E95ull);
  EXPECT_EQ(mix64(9001), 0x460776B3D8680A09ull);
  EXPECT_EQ(mix64(0xFFFFFFFFFFFFFFFFull), 0xE4D971771B652C20ull);
}

TEST(ShardRouting, SequentialIdsSpreadAcrossShards) {
  // Sequential node ids (the common deployment pattern) must spread close
  // to uniformly: over 1024 ids on 4 shards, every shard stays within
  // ~25% of the ideal 256 (the pinned mixer makes this deterministic).
  constexpr std::size_t kShards = 4;
  std::size_t counts[kShards] = {0, 0, 0, 0};
  for (std::uint64_t id = 0; id < 1024; ++id) {
    const std::size_t s =
        static_cast<std::size_t>(mix64(id) % kShards);
    ASSERT_LT(s, kShards);
    ++counts[s];
  }
  for (const std::size_t count : counts) {
    EXPECT_GT(count, 192u);
    EXPECT_LT(count, 320u);
  }
  // And the exact assignment is stable across releases.
  EXPECT_EQ(counts[0], 267u);
  EXPECT_EQ(counts[1], 247u);
  EXPECT_EQ(counts[2], 249u);
  EXPECT_EQ(counts[3], 261u);
}

TEST(ShardRouting, DaemonRoutesByTransmitterHash) {
  Fixture f = make_fixture(4, /*hostile=*/false);
  DaemonOptions opt;
  opt.shards = 4;
  mathx::Rng rng(1);
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng, opt);
  for (std::uint64_t id : {0ull, 1ull, 42ull, 9001ull}) {
    EXPECT_EQ(daemon.shard_of_node(chronos::NodeId{id}),
              static_cast<std::size_t>(mix64(id) % 4));
  }
  // One shard collapses the router to the identity.
  DaemonOptions one;
  mathx::Rng rng1(1);
  ChronosDaemon single(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng1, one);
  EXPECT_EQ(single.shard_of_node(chronos::NodeId{9001}), 0u);
}

TEST(ShardRouting, ShardsShareOneHostilePipeline) {
  // The pipeline is immutable (const methods, per-thread solver scratch),
  // so every shard ranges through the same instance, as every session of
  // an Engine does. With untrusted clients (the default) it screens with
  // every integrity check armed, whatever the caller's config says.
  Fixture f = make_fixture(2, /*hostile=*/false);
  DaemonOptions opt;
  opt.shards = 3;
  mathx::Rng rng(1);
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng, opt);
  EXPECT_EQ(&daemon.shard_pipeline(0), &daemon.shard_pipeline(1));
  EXPECT_EQ(&daemon.shard_pipeline(1), &daemon.shard_pipeline(2));
  EXPECT_TRUE(daemon.shard_pipeline(0).config().integrity.all_checks);
  EXPECT_THROW((void)daemon.shard_pipeline(3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Failure handling on the wire
// ---------------------------------------------------------------------------

TEST(ChronosDaemon, MalformedFramePoisonsOnlyThatConnection) {
  Fixture f = make_fixture(2, /*hostile=*/false);
  DaemonOptions opt;
  opt.trusted_clients = true;  // match the fixture engine's config exactly
  mathx::Rng rng(7);
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng, opt);

  auto [attacker_end, attacker_daemon_end] = make_loopback();
  auto [client_end, client_daemon_end] = make_loopback();
  daemon.attach(attacker_daemon_end);
  daemon.attach(client_daemon_end);

  std::thread attacker([end = attacker_end]() {
    // 32 bytes of garbage: framing damage, not a valid prefix.
    const std::vector<std::uint8_t> garbage(32, 0xAB);
    (void)end->send(garbage);
    end->close();
  });
  std::vector<RangingReply> replies;
  std::thread client([&, end = client_end]() {
    ChronosClient c(end);
    ASSERT_TRUE(c.connect().ok());
    ASSERT_TRUE(c.submit(f.requests[0]).ok());
    ASSERT_TRUE(c.submit(f.requests[1]).ok());
    replies = c.drain();
    EXPECT_TRUE(c.close().ok());
  });
  daemon.serve();
  attacker.join();
  client.join();

  // The attacker's connection was poisoned and closed; the well-behaved
  // client was served normally.
  EXPECT_EQ(daemon.stats().malformed_frames, 1u);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].status.ok());
  EXPECT_TRUE(replies[1].status.ok());
  EXPECT_TRUE(attacker_end->closed());
}

TEST(ChronosDaemon, RejectsCalibrationTableOfAnotherBandPlan) {
  // A table sized for another band plan would fail every request inside
  // combining; the constructor refuses it like its other preconditions.
  Fixture f = make_fixture(1, /*hostile=*/false);
  core::CalibrationTable wrong = f.engine.calibration();
  wrong.correction.resize(3);
  mathx::Rng rng(1);
  EXPECT_THROW(
      { ChronosDaemon daemon(f.source, core::RangingConfig{}, wrong, rng); },
      std::invalid_argument);
}

TEST(ChronosDaemon, ResolutionFailuresConsumeTicketsLikeABatch) {
  Fixture f = make_fixture(2, /*hostile=*/false);
  DaemonOptions opt;
  opt.trusted_clients = true;  // match the fixture engine's config exactly
  constexpr std::uint64_t kSeed = 55;
  mathx::Rng rng(kSeed);
  ChronosDaemon daemon(f.source, core::RangingConfig{},
                       f.engine.calibration(), rng, opt);
  auto [client_end, daemon_end] = make_loopback();
  daemon.attach(daemon_end);

  std::vector<RangingReply> replies;
  std::thread client([&, end = client_end]() {
    ChronosClient c(end);
    ASSERT_TRUE(c.connect().ok());
    ASSERT_TRUE(c.submit(f.requests[0]).ok());
    // Unknown transmitter: admitted (a ticket is consumed, mirroring
    // batch index alignment) but answered with the resolution failure.
    ASSERT_TRUE(
        c.submit({{chronos::NodeId{424242}, 0}, {chronos::NodeId{500}, 0}})
            .ok());
    ASSERT_TRUE(c.submit(f.requests[1]).ok());
    replies = c.drain();
    EXPECT_TRUE(c.close().ok());
  });
  daemon.serve();
  client.join();

  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(replies[0].status.ok());
  EXPECT_EQ(replies[1].status.code(), chronos::StatusCode::kUnknownNode);
  EXPECT_TRUE(replies[2].status.ok());
  EXPECT_EQ(daemon.stats().admitted, 3u);
  EXPECT_EQ(daemon.stats().failed_resolution, 1u);
  expect_admission_counts_agree(daemon);

  // The equivalence holds including the failed slot.
  mathx::Rng batch_rng(kSeed);
  const auto batch =
      f.engine.measure_batch(daemon.admitted_requests(), batch_rng, {});
  ASSERT_EQ(batch.results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_reply_matches(replies[i], reply_of(batch.results[i]));
  }
}

}  // namespace
}  // namespace chronos::netd
