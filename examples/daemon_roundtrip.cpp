// chronosd round trip: serve ranging over the binary wire protocol and
// prove the answer is the SAME as calling the engine in-process.
//
//   1. build a simulated backend + calibrate one device pair,
//   2. start a 2-shard ChronosDaemon on an in-process loopback stream,
//   3. drive it with ChronosClient (hello handshake, submit, drain) —
//      the shard queues are depth 1, so some submissions bounce off a
//      full queue as kQueueFull wire responses and the client library
//      resubmits them transparently,
//   4. replay the daemon's admitted-request log through measure_batch on
//      the same seed and check every wire reply bit-for-bit.
//
// The punchline is step 4: the determinism contract (result = pure
// function of source, pipeline, calibration, request, rng stream) holds
// across the wire — shard count, client interleaving, and backpressure
// retries cannot change a single bit of the answer.
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/sweep_source.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "netd/loopback.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace chronos;

  // ---- backend: the office testbed, one calibrated pair, four targets.
  const auto scen = sim::office_testbed(42);
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine engine = Engine::adopt(src);
  mathx::Rng rng(2016);
  src->add_node(NodeId{1}, sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(NodeId{2}, sim::make_mobile({1.0, 0.0}, 22));
  if (!engine.calibrate(NodeId{1}, NodeId{2}, rng).ok()) {
    std::printf("calibration failed\n");
    return 1;
  }
  std::vector<RangingRequest> requests;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto pl = scen.sample_pair(rng, 2.0, 12.0);
    const NodeId tx{100 + i}, rx{200 + i};
    src->add_node(tx, sim::make_mobile(pl.tx, 11));
    src->add_node(rx, sim::make_mobile(pl.rx, 22));
    requests.push_back({{tx, 0}, {rx, 0}});
  }

  // ---- daemon: 2 shards, queue depth 1 (so backpressure shows up on the
  // wire), untrusted clients by default — but this example owns both ends,
  // and the in-process comparison needs the daemon to run the engine's
  // exact RangingConfig.
  netd::DaemonOptions opt;
  opt.shards = 2;
  opt.shard_queue_depth = 1;
  opt.trusted_clients = true;
  constexpr std::uint64_t kSeed = 7;
  mathx::Rng daemon_rng(kSeed);
  netd::ChronosDaemon daemon(src, core::RangingConfig{},
                             engine.calibration(), daemon_rng, opt);
  auto [client_end, daemon_end] = netd::make_loopback();
  daemon.attach(daemon_end);

  // ---- client on its own thread (as a real client would be in another
  // process): handshake, submit everything, drain final replies.
  std::vector<netd::RangingReply> replies;
  std::uint64_t wire_retries = 0;
  int client_rc = 0;
  std::thread client_thread([&]() {
    netd::ChronosClient client(client_end);
    if (!client.connect().ok()) {
      client_rc = 1;
      return;
    }
    std::printf("connected: %u shard(s), queue depth %u, wire v1\n",
                client.server_shards(), client.server_queue_depth());
    for (const auto& request : requests) {
      if (!client.submit(request).ok()) {
        client_rc = 1;
        return;
      }
    }
    replies = client.drain();
    wire_retries = client.total_wire_retries();
    if (!client.close().ok()) client_rc = 1;
  });
  daemon.serve();
  client_thread.join();
  if (client_rc != 0 || replies.size() != requests.size()) {
    std::printf("transport failed (%zu of %zu replies)\n", replies.size(),
                requests.size());
    return 1;
  }

  std::printf("ranged %zu pairs over the wire (%llu kQueueFull retr%s "
              "absorbed by the client library):\n",
              replies.size(), static_cast<unsigned long long>(wire_retries),
              wire_retries == 1 ? "y" : "ies");
  for (std::size_t i = 0; i < replies.size(); ++i) {
    std::printf("  pair %zu: tof %7.3f ns  distance %6.3f m  (%s)\n", i,
                replies[i].tof_s * 1e9, replies[i].distance_m,
                replies[i].status.ok() ? "ok"
                                       : replies[i].status.to_string().c_str());
  }

  // ---- the contract: replay the admitted log in-process, compare bits.
  mathx::Rng replay_rng(kSeed);
  const auto& admitted = daemon.admitted_requests();
  const auto batch = engine.measure_batch(admitted, replay_rng, {});
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    // A kQueueFull bounce admits the request LATER than its submission
    // position (that is the whole point of the retry), so map each reply
    // to its slot in the admitted log — every request is unique here.
    std::size_t slot = admitted.size();
    for (std::size_t g = 0; g < admitted.size(); ++g) {
      if (admitted[g] == requests[i]) slot = g;
    }
    if (slot == admitted.size()) {
      ++mismatches;
      continue;
    }
    const auto expected = netd::reply_of(batch.results[slot]);
    if (std::memcmp(&replies[i].tof_s, &expected.tof_s, sizeof(double)) !=
            0 ||
        std::memcmp(&replies[i].distance_m, &expected.distance_m,
                    sizeof(double)) != 0 ||
        replies[i].status.code() != expected.status.code()) {
      ++mismatches;
    }
  }
  std::printf("in-process replay: %zu of %zu replies bit-identical\n",
              replies.size() - mismatches, replies.size());
  return mismatches == 0 ? 0 : 1;
}
