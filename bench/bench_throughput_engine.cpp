// Ranging throughput of the batched engine runtime: ranges/sec for one
// fixed request mix at 1/2/4/8 worker threads, an async-ingestion run with
// pipelined undrained sessions, a sustained bounded-queue backpressure
// run (RangingSession::try_submit at queue depths 1/8/64), a chronosd
// daemon-over-loopback sweep (clients x shard queue depth, with wire-level
// kQueueFull retry ratios), plus the scaling curve and a determinism
// cross-check (every configuration must reproduce the 1-thread results
// bit-for-bit — including the replies that crossed the wire). The engine
// session pool grows by replacement (2 -> 4 -> 8), so each sized step
// starts on fresh workers;
// the warm-persistent-worker payoff shows in the async section, which
// reuses the fully-grown pool across all pipelined batches.
//
// The backpressure section is the scoreboard for the v2 flow-control
// story: a producer that outruns the workers sees kQueueFull (never a
// block, never a silent drop) and the accepted-vs-rejected split
// quantifies how much queue depth buys at a given worker count. On this
// 1-CPU container the producer massively outruns the single effective
// worker, so reject ratios are high by design; the *shape* across depths
// is the signal.
//
// The paper budgets ~80 ms per ToF estimate on one Intel 5300 pair; the
// ROADMAP's north star is millions of device pairs, which is a throughput
// problem — this harness is its scoreboard. Speedup is hardware-bound:
// on a single-core container the curve is flat; on an N-core box the
// workload is embarrassingly parallel and scales to min(N, 8) here.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/sweep_source.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "netd/loopback.hpp"
#include "sim/scenario.hpp"

int main() {
  using namespace chronos;
  bench::header("Throughput", "batched ranging engine, 1/2/4/8 threads");

  const auto scen = sim::office_testbed(42);
  auto src = std::make_shared<core::SimSweepSource>(scen.environment(),
                                                    sim::LinkSimConfig{});
  Engine eng = Engine::adopt(src);
  mathx::Rng rng(7);
  src->add_node(NodeId{9001}, sim::make_mobile({0.0, 0.0}, 11));
  src->add_node(NodeId{9002}, sim::make_mobile({1.0, 0.0}, 22));
  if (!eng.calibrate(NodeId{9001}, NodeId{9002}, rng).ok()) return 1;

  // One fixed batch of device pairs across the office floor (the same mix
  // for every thread count, so the comparison is apples-to-apples). Two
  // physical cards (personalities 11 / 22), one node id per placement.
  constexpr int kRequests = 40;
  std::vector<RangingRequest> requests;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const auto pl = scen.sample_pair(rng, 1.0, 15.0);
    const NodeId tx_id{1000 + i}, rx_id{2000 + i};
    src->add_node(tx_id, sim::make_mobile(pl.tx, 11));
    src->add_node(rx_id, sim::make_mobile(pl.rx, 22));
    requests.push_back({{tx_id, 0}, {rx_id, 0}});
  }

  std::printf("  %-8s %-12s %-12s %-10s\n", "threads", "wall [s]",
              "ranges/sec", "speedup");
  constexpr std::uint64_t kBatchSeed = 1234;
  std::vector<core::RangingResult> reference;
  double rate_1t = 0.0, rate_8t = 0.0;
  int mismatches = 0;
  for (const int threads : {1, 2, 4, 8}) {
    // Same seed per run: the work AND the results are identical by the
    // batch determinism contract; only the wall clock may move.
    mathx::Rng batch_rng(kBatchSeed);
    const auto batch =
        eng.measure_batch(requests, batch_rng, BatchOptions{threads});
    const double rate =
        static_cast<double>(requests.size()) / batch.wall_time_s;
    if (threads == 1) {
      reference = batch.results;
      rate_1t = rate;
    } else {
      for (int i = 0; i < kRequests; ++i) {
        const auto k = static_cast<std::size_t>(i);
        if (batch.results[k].tof_s != reference[k].tof_s ||
            batch.results[k].distance_m != reference[k].distance_m) {
          ++mismatches;
        }
      }
    }
    if (threads == 8) rate_8t = rate;
    std::printf("  %-8d %-12.3f %-12.1f %-10.2f\n", batch.threads_used,
                batch.wall_time_s, rate, rate / rate_1t);
  }

  // Async ingestion on the persistent session pool: several batches in
  // flight at once (each an undrained session deep enough to hold it),
  // results still bit-identical to the 1-thread reference. On real cores
  // this pipelines sweep production; on one core it exercises the API
  // contract.
  constexpr int kPipelined = 3;
  const auto t_async0 = std::chrono::steady_clock::now();
  std::vector<RangingSession> sessions;
  for (int b = 0; b < kPipelined; ++b) {
    mathx::Rng batch_rng(kBatchSeed);
    sessions.push_back(eng.open_session(
        batch_rng, {.queue_depth = requests.size(), .threads = 4}));
    for (const auto& request : requests) {
      if (!sessions.back().submit(request).ok()) ++mismatches;
    }
  }
  for (auto& session : sessions) {
    const auto results = session.drain();
    for (int i = 0; i < kRequests; ++i) {
      const auto k = static_cast<std::size_t>(i);
      if (results[k].tof_s != reference[k].tof_s) ++mismatches;
    }
  }
  const double async_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_async0)
          .count();
  const double rate_async =
      static_cast<double>(kPipelined * kRequests) / async_wall;
  std::printf("  async    %-12.3f %-12.1f (%d pipelined batches, "
              "%zu-worker session)\n",
              async_wall, rate_async, kPipelined, eng.session_threads());

  // Bounded-queue backpressure: a sustained try_submit producer that
  // cycles the request mix until kAccepted ranges are admitted, collecting
  // results only when the queue pushes back. try_submit never blocks —
  // every queue-full is an explicit kQueueFull status.
  std::printf("\n  backpressure (try_submit producer, %d accepted ranges "
              "per depth)\n", 3 * kRequests);
  std::printf("  %-8s %-10s %-10s %-14s %-12s\n", "depth", "accepted",
              "rejected", "reject ratio", "ranges/sec");
  std::vector<std::pair<std::string, double>> backpressure_metrics;
  for (const std::size_t depth : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}}) {
    constexpr int kAccepted = 3 * kRequests;
    mathx::Rng session_rng(kBatchSeed);
    auto session = eng.open_session(
        session_rng, {.queue_depth = depth, .threads = 4});
    const auto t0 = std::chrono::steady_clock::now();
    long accepted = 0, rejected = 0;
    std::size_t next = 0;
    while (accepted < kAccepted) {
      const auto ticket = session.try_submit(requests[next]);
      if (ticket.ok()) {
        ++accepted;
        next = (next + 1) % requests.size();
        continue;
      }
      if (ticket.status().code() != StatusCode::kQueueFull) {
        std::printf("  unexpected submit failure: %s\n",
                    ticket.status().to_string().c_str());
        return 1;
      }
      ++rejected;
      // The queue pushed back: give the workers room (collect a finished
      // result if one is ready, otherwise yield the producer's core).
      if (session.next_ready()) {
        if (!session.next().status.ok()) ++mismatches;
      } else {
        std::this_thread::yield();
      }
    }
    for (auto& result : session.drain()) {
      if (!result.status.ok()) ++mismatches;
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double ratio =
        static_cast<double>(rejected) /
        static_cast<double>(accepted + rejected);
    const double rate = static_cast<double>(kAccepted) / wall;
    std::printf("  %-8zu %-10ld %-10ld %-14.3f %-12.1f\n", depth, accepted,
                rejected, ratio, rate);
    const std::string suffix = "_d" + std::to_string(depth);
    backpressure_metrics.emplace_back("reject_ratio" + suffix, ratio);
    backpressure_metrics.emplace_back("accepted_per_sec" + suffix, rate);
  }

  // chronosd over loopback: the same request mix served through the wire
  // protocol — M concurrent clients against a 2-shard daemon at two shard
  // queue depths. Depth 1 forces the flow control onto the WIRE (kQueueFull
  // responses the client library retries through) instead of in-process
  // try_submit; depth 64 admits nearly everything on first contact. The
  // retry ratio is the fraction of request frames that were backpressure
  // round-trips. Every reply is still cross-checked bit-for-bit against
  // measure_batch over the daemon's admitted-request log: the determinism
  // contract survives the wire, whatever the client/depth interleaving.
  std::printf("\n  chronosd over loopback (2 shards, clients x depth "
              "sweep, %d ranges per cell)\n", kRequests);
  std::printf("  %-8s %-8s %-10s %-10s %-14s %-12s\n", "clients", "depth",
              "admitted", "rejected", "retry ratio", "ranges/sec");
  std::vector<std::pair<std::string, double>> daemon_metrics;
  for (const std::size_t n_clients : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t depth : {std::size_t{1}, std::size_t{64}}) {
      netd::DaemonOptions opt;
      opt.shards = 2;
      opt.shard_queue_depth = depth;
      opt.trusted_clients = true;  // same RangingConfig as `eng` exactly
      mathx::Rng daemon_rng(kBatchSeed);
      netd::ChronosDaemon daemon(src, core::RangingConfig{},
                                 eng.calibration(), daemon_rng, opt);
      std::vector<std::shared_ptr<netd::Stream>> ends;
      for (std::size_t c = 0; c < n_clients; ++c) {
        auto [client_end, daemon_end] = netd::make_loopback();
        daemon.attach(daemon_end);
        ends.push_back(client_end);
      }
      // Disjoint strided slices of the fixed mix, one per client: every
      // request stays unique, so each reply maps to exactly one admitted
      // slot when replaying the log through measure_batch below.
      std::vector<std::vector<netd::RangingReply>> replies(n_clients);
      std::vector<int> transport_errors(n_clients, 0);
      const auto t_daemon0 = std::chrono::steady_clock::now();
      std::vector<std::thread> drivers;
      for (std::size_t c = 0; c < n_clients; ++c) {
        drivers.emplace_back([&, c]() {
          netd::ChronosClient client(ends[c]);
          if (!client.connect().ok()) {
            transport_errors[c] = 1;
            return;
          }
          for (std::size_t i = c; i < requests.size(); i += n_clients) {
            if (!client.submit(requests[i]).ok()) {
              transport_errors[c] = 1;
              return;
            }
          }
          replies[c] = client.drain();
          if (!client.close().ok()) transport_errors[c] = 1;
        });
      }
      daemon.serve();
      for (auto& t : drivers) t.join();
      const double daemon_wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t_daemon0)
              .count();
      for (const int rc : transport_errors) mismatches += rc;

      // Bit-identity across the wire: replay the admitted log in-process.
      const auto& admitted = daemon.admitted_requests();
      mathx::Rng replay_rng(kBatchSeed);
      const auto replay = eng.measure_batch(admitted, replay_rng, {});
      for (std::size_t c = 0; c < n_clients; ++c) {
        for (std::size_t i = 0; i < replies[c].size(); ++i) {
          const auto& request = requests[c + i * n_clients];
          std::size_t slot = admitted.size();
          for (std::size_t g = 0; g < admitted.size(); ++g) {
            if (admitted[g] == request) slot = g;
          }
          if (slot == admitted.size()) {
            ++mismatches;
            continue;
          }
          const auto expected = netd::reply_of(replay.results[slot]);
          const auto& got = replies[c][i];
          if (got.status.code() != expected.status.code() ||
              std::memcmp(&got.tof_s, &expected.tof_s, sizeof(double)) != 0 ||
              std::memcmp(&got.distance_m, &expected.distance_m,
                          sizeof(double)) != 0) {
            ++mismatches;
          }
        }
      }

      const auto& dstats = daemon.stats();
      const double rejected =
          static_cast<double>(dstats.queue_full_rejections);
      const double retry_ratio =
          rejected / (static_cast<double>(dstats.admitted) + rejected);
      const double daemon_rate =
          static_cast<double>(dstats.admitted) / daemon_wall;
      std::printf("  %-8zu %-8zu %-10llu %-10.0f %-14.3f %-12.1f\n",
                  n_clients, depth,
                  static_cast<unsigned long long>(dstats.admitted), rejected,
                  retry_ratio, daemon_rate);
      const std::string suffix =
          "_c" + std::to_string(n_clients) + "_d" + std::to_string(depth);
      daemon_metrics.emplace_back("daemon_retry_ratio" + suffix, retry_ratio);
      daemon_metrics.emplace_back("daemon_ranges_per_sec" + suffix,
                                  daemon_rate);
    }
  }

  const double per_estimate_ms = 1e3 / rate_1t;
  std::printf("\n");
  bench::paper_vs_measured("single-pair estimate budget", 80.0,
                           per_estimate_ms, "ms");
  std::printf("  determinism cross-check: %d mismatching results "
              "(must be 0)\n", mismatches);
  std::vector<std::pair<std::string, double>> metrics = {
      {"ranges_per_sec_1t", rate_1t},
      {"ranges_per_sec_8t", rate_8t},
      {"ranges_per_sec_async", rate_async},
      {"speedup_8t", rate_8t / rate_1t},
      {"mismatches", static_cast<double>(mismatches)}};
  metrics.insert(metrics.end(), backpressure_metrics.begin(),
                 backpressure_metrics.end());
  metrics.insert(metrics.end(), daemon_metrics.begin(),
                 daemon_metrics.end());
  bench::json_summary("throughput", metrics);
  return mismatches == 0 ? 0 : 1;
}
