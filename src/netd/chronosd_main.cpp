// chronosd: the sharded ranging daemon, run as an in-process loopback
// selftest (CI-friendly: no sockets). Builds the office-testbed simulator
// backend, starts a daemon with N shards, drives it from M concurrent
// clients over loopback streams, and then PROVES the determinism-over-
// the-wire contract: every reply must be bit-identical to the equivalent
// in-process measure_batch over the daemon's admitted-request log on the
// same seed.
//
//   chronosd [--shards=N] [--clients=M] [--requests=K] [--depth=D]
//            [--threads=T] [--seed=S] [--trusted]
//
// Exit status 0 iff the handshake, every drain, and the bit-identity
// cross-check all pass — which is why the `smoke_chronosd` CTest case can
// simply run the binary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/sweep_source.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "netd/loopback.hpp"
#include "sim/scenario.hpp"

namespace {

std::uint64_t flag_or(int argc, char** argv, const char* name,
                      std::uint64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace chronos;

  const std::size_t shards = flag_or(argc, argv, "shards", 2);
  const std::size_t clients = flag_or(argc, argv, "clients", 3);
  const std::size_t requests_per_client = flag_or(argc, argv, "requests", 6);
  const std::size_t depth = flag_or(argc, argv, "depth", 2);
  const std::size_t threads = flag_or(argc, argv, "threads", 1);
  const std::uint64_t seed = flag_or(argc, argv, "seed", 7);
  const bool trusted = has_flag(argc, argv, "trusted");

  std::printf("chronosd selftest: %zu shard(s), %zu client(s) x %zu "
              "request(s), depth %zu, %s clients\n",
              shards, clients, requests_per_client, depth,
              trusted ? "trusted" : "untrusted");

  // ---- backend + calibration (shared by daemon and reference engine)
  const auto scen = sim::office_testbed(42);
  EngineOptions options;
  if (!trusted) options.ranging.integrity = core::IntegrityConfig::hostile();
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine reference = Engine::adopt(src, options);
  mathx::Rng cal_rng(99);
  src->add_node(NodeId{9001}, sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(NodeId{9002}, sim::make_mobile({1.0, 0.0}, 22));
  if (!reference.calibrate(NodeId{9001}, NodeId{9002}, cal_rng).ok()) {
    std::printf("FAIL: calibration\n");
    return 1;
  }

  mathx::Rng place_rng(4242);
  std::vector<std::vector<RangingRequest>> plans(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t i = 0; i < requests_per_client; ++i) {
      const auto pl = scen.sample_pair(place_rng, 1.0, 15.0);
      const NodeId tx{1000 + 100 * c + i}, rx{5000 + 100 * c + i};
      src->add_node(tx, sim::make_mobile(pl.tx, 11));
      src->add_node(rx, sim::make_mobile(pl.rx, 22));
      plans[c].push_back({{tx, 0}, {rx, 0}});
    }
  }

  // ---- daemon over loopback
  netd::DaemonOptions opt;
  opt.shards = shards;
  opt.shard_queue_depth = depth;
  opt.shard_threads = threads;
  opt.trusted_clients = trusted;
  mathx::Rng daemon_rng(seed);
  netd::ChronosDaemon daemon(src, options.ranging, reference.calibration(),
                             daemon_rng, opt);

  std::vector<std::shared_ptr<netd::Stream>> client_ends;
  for (std::size_t c = 0; c < clients; ++c) {
    auto [client_end, daemon_end] = netd::make_loopback();
    daemon.attach(daemon_end);
    client_ends.push_back(client_end);
  }

  std::vector<std::vector<netd::RangingReply>> replies(clients);
  std::vector<int> client_rc(clients, 0);
  std::vector<std::thread> client_threads;
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c]() {
      netd::ChronosClient client(client_ends[c]);
      if (!client.connect().ok()) {
        client_rc[c] = 1;
        return;
      }
      for (const auto& request : plans[c]) {
        if (!client.submit(request).ok()) {
          client_rc[c] = 1;
          return;
        }
      }
      replies[c] = client.drain();
      if (!client.close().ok()) client_rc[c] = 1;
    });
  }
  daemon.serve();
  for (auto& t : client_threads) t.join();
  for (std::size_t c = 0; c < clients; ++c) {
    if (client_rc[c] != 0) {
      std::printf("FAIL: client %zu transport error\n", c);
      return 1;
    }
  }

  // ---- bit-identity: replay the admitted log through measure_batch
  const auto& admitted = daemon.admitted_requests();
  mathx::Rng batch_rng(seed);
  const auto batch = reference.measure_batch(admitted, batch_rng, {});

  // Map every client reply back to its admitted slot: replies arrive in
  // per-client submission order, and each request appears once.
  std::size_t mismatches = 0, checked = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    if (replies[c].size() != plans[c].size()) {
      std::printf("FAIL: client %zu got %zu of %zu replies\n", c,
                  replies[c].size(), plans[c].size());
      return 1;
    }
    for (std::size_t i = 0; i < plans[c].size(); ++i) {
      std::size_t slot = admitted.size();
      for (std::size_t g = 0; g < admitted.size(); ++g) {
        if (admitted[g] == plans[c][i]) slot = g;
      }
      if (slot == admitted.size()) {
        std::printf("FAIL: request of client %zu never admitted\n", c);
        return 1;
      }
      const netd::RangingReply expected = netd::reply_of(batch.results[slot]);
      const netd::RangingReply& got = replies[c][i];
      const bool same =
          got.status.code() == expected.status.code() &&
          got.attempts == expected.attempts &&
          got.peak_found == expected.peak_found &&
          std::memcmp(&got.tof_s, &expected.tof_s, sizeof(double)) == 0 &&
          std::memcmp(&got.distance_m, &expected.distance_m,
                      sizeof(double)) == 0;
      mismatches += same ? 0 : 1;
      ++checked;
    }
  }

  const auto& stats = daemon.stats();
  std::printf("admitted %llu, queue-full rejections %llu, responses %llu\n",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.queue_full_rejections),
              static_cast<unsigned long long>(stats.responses_sent));
  std::printf("bit-identity: %zu checked, %zu mismatching (must be 0)\n",
              checked, mismatches);
  return mismatches == 0 ? 0 : 1;
}
