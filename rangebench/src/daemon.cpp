// daemon_replay: chronosd over the in-process loopback Stream, no sockets.
//
// Set-up records the testbed's pair universe (harness.hpp; one sweep per
// link through Engine::capture_sweep) into a TraceSweepSource, then starts
// a 2-shard daemon (1 worker each, default queue depth, untrusted clients
// so IntegrityConfig::hostile() is armed) and connects 2 clients. Each
// client owns a seeded half of the links and keeps one request
// outstanding: a call is one ChronosClient submit -> drain. Clients run in
// rounds over their links (a seeded order per round) and meet at a barrier
// between rounds, so the measured phase is whole rounds: shard shares and
// wire bytes per range are exact counts, and round 0 is the exact pass.
// Replay takes synthesis out of the call, so wire, demux, shard routing,
// head-of-line waits and the hostile gate show.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "harness.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "netd/client.hpp"
#include "netd/daemon.hpp"
#include "netd/loopback.hpp"
#include "netd/wire.hpp"
#include "sim/radio.hpp"
#include "sim/scenario.hpp"

namespace rangebench {
namespace {

namespace core = chronos::core;
namespace netd = chronos::netd;
namespace sim = chronos::sim;
namespace mathx = chronos::mathx;
using chronos::NodeId;

// Child streams of Rng(seed): one per kind of generated input.
constexpr std::uint64_t kSplitStream = 11;
constexpr std::uint64_t kCalibrationStream = 12;
constexpr std::uint64_t kDaemonStream = 14;
constexpr std::uint64_t kOrderStream = 15;

constexpr int kClients = 2;
/// Warm-up calls per client.
constexpr std::size_t kWarmupCalls = 8;
constexpr std::uint64_t kTxPersonality = 11;
constexpr std::uint64_t kRxPersonality = 22;
constexpr std::uint64_t kTxIdBase = 100000;
constexpr std::uint64_t kRxIdBase = 200000;
constexpr NodeId kCalTx{1};
constexpr NodeId kCalRx{2};

struct Link {
  std::uint64_t id = 0;  ///< universe index: node ids and noise stream
  chronos::RangingRequest request;
  double true_tof_s = 0.0;
};

/// Client-side stream that counts the bytes crossing it.
class CountingStream final : public netd::Stream {
 public:
  explicit CountingStream(std::shared_ptr<netd::Stream> inner)
      : inner_(std::move(inner)) {}

  chronos::Status send(std::span<const std::uint8_t> bytes) override {
    bytes_ += bytes.size();
    return inner_->send(bytes);
  }
  chronos::Result<std::size_t> try_recv(
      std::vector<std::uint8_t>& out) override {
    return count(inner_->try_recv(out));
  }
  chronos::Result<std::size_t> recv(std::vector<std::uint8_t>& out) override {
    return count(inner_->recv(out));
  }
  void close() override { inner_->close(); }
  bool closed() const override { return inner_->closed(); }

  std::uint64_t bytes() const { return bytes_.load(); }

 private:
  chronos::Result<std::size_t> count(chronos::Result<std::size_t> got) {
    if (got.ok()) bytes_ += got.value();
    return got;
  }

  std::shared_ptr<netd::Stream> inner_;
  std::atomic<std::uint64_t> bytes_{0};
};

struct Rig {
  std::vector<Link> links;  ///< the universe, indexed by Link::id
  std::vector<std::vector<std::size_t>> owned;  ///< link indices per client
  std::shared_ptr<core::SimSweepSource> sim;
  chronos::Engine recorder;
  std::shared_ptr<core::TraceSweepSource> trace;
  core::CalibrationTable calibration;
  std::unique_ptr<netd::ChronosDaemon> daemon;
  std::vector<std::shared_ptr<CountingStream>> ends;
  std::vector<std::unique_ptr<netd::ChronosClient>> clients;
  std::unique_ptr<Team> team;
  std::thread serve_thread;
  /// Requests the warm-up admitted per shard.
  std::vector<std::size_t> warmup_admitted;
  /// Replies received and kQueueFull round-trips, over the daemon's life.
  std::uint64_t replies = 0;
  std::uint64_t wire_retries = 0;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { shutdown(); }

  /// Says goodbye on every connection and waits for serve() to return.
  void shutdown() {
    for (auto& client : clients) (void)client->close();
    clients.clear();
    for (auto& end : ends) end->close();
    if (serve_thread.joinable()) serve_thread.join();
  }
};

/// Seeded visiting order of one client's links in one round.
std::vector<std::size_t> round_order(const Rig& rig, std::uint64_t seed,
                                     int client, std::uint64_t round) {
  const auto& owned = rig.owned[static_cast<std::size_t>(client)];
  std::vector<std::size_t> order;
  for (const std::size_t k : seeded_order(
           owned.size(),
           mathx::Rng(seed).split(kOrderStream).split(
               round * kClients + static_cast<std::uint64_t>(client)))) {
    order.push_back(owned[k]);
  }
  return order;
}

std::unique_ptr<Rig> build_rig(const RunConfig& config, SetupLog& log) {
  auto rig = std::make_unique<Rig>();
  log.phase("setup.engine", [&] {
    const sim::Scenario scenario = sim::office_testbed();
    rig->sim = std::make_shared<core::SimSweepSource>(scenario.environment(),
                                                      sim::LinkSimConfig{});
    const std::vector<sim::Placement> universe = testbed_pairs(scenario);
    for (std::uint64_t u = 0; u < universe.size(); ++u) {
      const sim::Placement& pl = universe[u];
      const NodeId tx{kTxIdBase + u}, rx{kRxIdBase + u};
      rig->sim->add_node(tx, sim::make_mobile(pl.tx, kTxPersonality));
      rig->sim->add_node(rx, sim::make_mobile(pl.rx, kRxPersonality));
      rig->links.push_back({u,
                            {{tx, 0}, {rx, 0}},
                            chronos::mathx::distance_to_tof(pl.distance())});
    }
    // A seeded split of the library between the clients.
    const std::vector<std::size_t> split = seeded_order(
        rig->links.size(), mathx::Rng(config.seed).split(kSplitStream));
    rig->owned.resize(kClients);
    for (std::size_t k = 0; k < split.size(); ++k) {
      rig->owned[k * kClients / split.size()].push_back(split[k]);
    }
    rig->sim->add_node(kCalTx, sim::make_mobile({0.0, 0.0}, kTxPersonality));
    rig->sim->add_node(kCalRx, sim::make_mobile({1.0, 0.0}, kRxPersonality));
    chronos::EngineOptions options;
    options.calibration_sweeps = kCalibrationSweeps;
    rig->recorder = chronos::Engine::adopt(
        std::make_shared<TimedSource>(rig->sim, "sim.sweep_for"), options);
    rig->team = std::make_unique<Team>(kClients);
  });
  log.phase("setup.calibrate", [&] {
    mathx::Rng rng = mathx::Rng(config.seed).split(kCalibrationStream);
    const chronos::Status status =
        rig->recorder.calibrate(kCalTx, kCalRx, rng);
    if (!status.ok()) {
      throw std::runtime_error("calibration failed: " + status.to_string());
    }
    rig->calibration = rig->recorder.calibration();
  });
  log.phase("setup.record", [&] {
    // One sweep per link, so every reply is a pure function of its link.
    rig->trace = std::make_shared<core::TraceSweepSource>();
    for (std::size_t i = 0; i < rig->links.size(); ++i) {
      mathx::Rng rng = noise_stream(rig->links[i].id, 0);
      auto sweep = rig->recorder.capture_sweep(rig->links[i].request, rng);
      if (!sweep.ok()) {
        throw std::runtime_error("recording failed: " +
                                 sweep.status().to_string());
      }
      const chronos::Status added = rig->trace->try_add_sweep(
          core::TraceKey::of(rig->links[i].request), std::move(sweep).value());
      if (!added.ok()) {
        throw std::runtime_error("recording failed: " + added.to_string());
      }
    }
  });
  log.phase("setup.engine", [&] {
    netd::DaemonOptions options;
    options.shards = 2;
    options.shard_threads = 1;
    mathx::Rng rng = mathx::Rng(config.seed).split(kDaemonStream);
    rig->daemon = std::make_unique<netd::ChronosDaemon>(
        std::make_shared<TimedSource>(rig->trace, "replay.sweep_for"),
        chronos::EngineOptions{}.ranging, rig->calibration, rng, options);
    for (int c = 0; c < kClients; ++c) {
      auto [client_end, daemon_end] = netd::make_loopback();
      rig->daemon->attach(daemon_end);
      rig->ends.push_back(std::make_shared<CountingStream>(client_end));
      rig->clients.push_back(
          std::make_unique<netd::ChronosClient>(rig->ends.back()));
    }
    rig->serve_thread = std::thread([daemon = rig->daemon.get()] {
      daemon->serve();
    });
  });
  log.phase("setup.warmup", [&] {
    // Handshake, then the same few links for every seed: fills the shard
    // workers' solver workspaces. Their shard admissions are remembered so
    // the measured shard shares count whole measured rounds only.
    std::vector<std::string> errors(kClients);
    std::vector<std::uint64_t> replies(kClients, 0), retries(kClients, 0);
    rig->warmup_admitted.assign(rig->daemon->shards(), 0);
    for (std::size_t i = 0; i < kWarmupCalls * kClients; ++i) {
      ++rig->warmup_admitted[rig->daemon->shard_of_node(
          rig->links[i].request.tx.node)];
    }
    rig->team->run([&](int c) {
      netd::ChronosClient& client = *rig->clients[static_cast<std::size_t>(c)];
      if (const chronos::Status s = client.connect(); !s.ok()) {
        errors[static_cast<std::size_t>(c)] = s.to_string();
        return;
      }
      for (std::size_t k = 0; k < kWarmupCalls; ++k) {
        const Link& link =
            rig->links[static_cast<std::size_t>(c) * kWarmupCalls + k];
        if (!client.submit(link.request).ok()) break;
        for (const auto& reply : client.drain()) {
          ++replies[static_cast<std::size_t>(c)];
          retries[static_cast<std::size_t>(c)] +=
              static_cast<std::uint64_t>(reply.wire_retries);
        }
      }
    });
    for (int c = 0; c < kClients; ++c) {
      if (!errors[static_cast<std::size_t>(c)].empty()) {
        throw std::runtime_error("client connect failed: " +
                                 errors[static_cast<std::size_t>(c)]);
      }
      rig->replies += replies[static_cast<std::size_t>(c)];
      rig->wire_retries += retries[static_cast<std::size_t>(c)];
    }
  });
  return rig;
}

/// Per-client results of the measured phase.
struct Tally {
  std::vector<CallSample> calls;
  std::vector<double> tof_err_ns;
  std::vector<int> round0_iterations;
  int round0_rejects = 0;
  std::vector<double> probe_candidates;  ///< traced calls of round 0
  std::map<std::size_t, std::uint64_t> tof_bits;  ///< first reply per link
  std::uint64_t replies = 0;
  std::uint64_t wire_retries = 0;
  int reply_problems = 0;
  int nondeterministic = 0;
  int probe_mismatches = 0;
  double probe_s = 0.0;  ///< reference-probe time on this client
  std::vector<std::uint8_t> frame_buffer;
};

/// One call: submit -> drain with one request outstanding. Files the
/// sample and the reply's transport facts in `tally`; returns the reply
/// when there was exactly one.
std::optional<netd::RangingReply> call_daemon(netd::ChronosClient& client,
                                              const Link& link,
                                              std::size_t link_index,
                                              CallSample& sample,
                                              Tally& tally) {
  Tracer::Scope span(sample.traced ? "client.call" : nullptr,
                     static_cast<std::int64_t>(sample.index), false,
                     link.request.tx.node.value);
  sample.start_s = now_s();
  const bool submitted = client.submit(link.request).ok();
  std::vector<netd::RangingReply> replies =
      submitted ? client.drain() : std::vector<netd::RangingReply>{};
  sample.end_s = now_s();
  span.close();

  tally.replies += replies.size();
  if (replies.size() != 1) {
    ++tally.reply_problems;
    tally.calls.push_back(sample);
    return std::nullopt;
  }
  netd::RangingReply& reply = replies.front();
  tally.wire_retries += static_cast<std::uint64_t>(reply.wire_retries);
  sample.ok = reply.status.ok();
  if (sample.ok) {
    sample.ranges_ok = 1;
    // One recorded sweep per link: every reply of a link is bit-identical.
    const auto [it, fresh] =
        tally.tof_bits.emplace(link_index, bits_of(reply.tof_s));
    if (!fresh && it->second != bits_of(reply.tof_s)) ++tally.nondeterministic;
  }
  tally.calls.push_back(sample);
  return std::move(reply);
}

/// The traced call's frames through the codec, then replay + estimate of
/// its sweep on the shard's pipeline. Returns false on disagreement.
bool probe_call(const Rig& rig, const Link& link, std::uint64_t index,
                const netd::RangingReply& reply, Tally& tally,
                bool round0) {
  Tracer::Scope root("probe", static_cast<std::int64_t>(index), true,
                     link.request.tx.node.value);
  bool agree = true;
  {
    Tracer::Scope span("wire.codec", -1);
    std::vector<std::uint8_t>& buf = tally.frame_buffer;
    buf.clear();
    netd::encode_request(buf, {index, link.request});
    const netd::DecodeOutcome request = netd::decode_frame(buf);
    netd::ResponseFrame response;
    response.request_id = index;
    response.code = reply.status.code();
    response.message = reply.status.message();
    response.tof_s = reply.tof_s;
    response.distance_m = reply.distance_m;
    response.toa_s = reply.toa_s;
    response.detection_delay_s = reply.detection_delay_s;
    response.solver_iterations =
        static_cast<std::uint32_t>(reply.solver_iterations);
    response.attempts = static_cast<std::uint32_t>(reply.attempts);
    response.peak_found = reply.peak_found;
    buf.clear();
    netd::encode_response(buf, response);
    const netd::DecodeOutcome decoded = netd::decode_frame(buf);
    span.close();
    agree = request.has_frame && decoded.has_frame &&
            bits_of(decoded.frame.response.tof_s) == bits_of(reply.tof_s);
  }

  const auto resolved = rig.trace->resolve(link.request);
  if (!resolved.ok()) return false;
  mathx::Rng unused(0);  // one sweep per link: the pick draws nothing useful
  chronos::Result<chronos::phy::SweepMeasurement> sweep =
      chronos::Status{chronos::StatusCode::kInternal, "not replayed"};
  {
    Tracer::Scope span("probe.replay", -1);
    sweep = rig.trace->sweep_for(resolved.value(), unused);
  }
  if (!sweep.ok()) return false;

  const StageReplay replay = replay_stages(
      rig.daemon->shard_pipeline(
          rig.daemon->shard_of_node(link.request.tx.node)),
      rig.trace->bands(), rig.calibration, std::span(&sweep.value(), 1));
  const core::RangingResult& again = replay.estimates.front();
  if (round0) {
    tally.probe_candidates.push_back(
        static_cast<double>(again.candidates.size()));
  }
  return agree && replay.screens_ok &&
         replay.iterations.front() == reply.solver_iterations &&
         bits_of(again.tof_s) == bits_of(reply.tof_s);
}

void per_layer(const Rig& rig, const std::vector<Tally>& tallies,
               double demux_cpu_s, std::uint64_t phase_bytes, Report& report) {
  const std::vector<Span> spans = Tracer::instance().spans();
  auto& layer = report.layer;

  std::vector<double> iterations, candidates;
  int rejects = 0, probe_mismatches = 0;
  std::uint64_t retries = 0;
  for (const Tally& t : tallies) {
    for (const int it : t.round0_iterations) iterations.push_back(it);
    candidates.insert(candidates.end(), t.probe_candidates.begin(),
                      t.probe_candidates.end());
    rejects += t.round0_rejects;
    probe_mismatches += t.probe_mismatches;
    retries += t.wire_retries;
  }
  double ranges = 0.0;
  for (const CallSample& c : report.calls) ranges += c.ranges_ok;

  layer["sim.sweep_ms_p50"] =
      quantile(span_durations_ms(spans, "sim.sweep_for", "setup.record"), 0.5);
  std::vector<double> replay_ms;
  std::multimap<std::uint64_t, const Span*> replay_by_node;
  for (const Span& s : spans) {
    if (s.name != "replay.sweep_for" || s.start_s < report.phase_start_s ||
        s.end_s > report.phase_end_s) {
      continue;
    }
    replay_ms.push_back(s.duration_s() * 1e3);
    replay_by_node.emplace(s.key, &s);
  }
  layer["replay.sweep_ms_p50"] = quantile(replay_ms, 0.5);
  layer["integrity.screen_ms_p50"] =
      quantile(span_durations_ms(spans, "integrity.screen"), 0.5);
  layer["integrity.rejects"] = rejects;
  layer["combine.ms_p50"] = quantile(span_durations_ms(spans, "combine"), 0.5);
  const std::vector<double> solve_ms = span_durations_ms(spans, "ndft.solve");
  layer["ndft.solve_ms_p50"] = quantile(solve_ms, 0.5);
  layer["ndft.solve_ms_p90"] = quantile(solve_ms, 0.9);
  layer["ndft.iterations_mean"] = mean(iterations);
  layer["ndft.iterations_p90"] = quantile(iterations, 0.9);
  layer["ndft.panel_ms_per_rhs"] = 0.0;
  layer["ranging.candidates_mean"] = mean(candidates);

  // Waiting: the call minus the replay of its sweep (matched by link and
  // time on the shard worker) minus the estimate the probe re-timed.
  std::vector<double> peak_ms, wait_ms;
  const RequestSpans by_request = spans_by_request(spans);
  for (const Span& call : spans) {
    if (call.name != "client.call") continue;
    const auto it = by_request.find(call.request);
    if (it == by_request.end()) continue;
    const auto get = [&ms = it->second](const char* key) {
      const auto found = ms.find(key);
      return found == ms.end() ? 0.0 : found->second;
    };
    const double estimate = get("ranging.estimate@probe");
    peak_ms.push_back(estimate - get("integrity.screen@probe") -
                      get("combine@probe") - get("ndft.solve@probe"));
    const auto [lo, hi] = replay_by_node.equal_range(call.key);
    for (auto r = lo; r != hi; ++r) {
      if (r->second->start_s >= call.start_s &&
          r->second->end_s <= call.end_s) {
        wait_ms.push_back(call.duration_s() * 1e3 -
                          r->second->duration_s() * 1e3 - estimate);
        break;
      }
    }
  }
  layer["ranging.peak_ms_p50"] = quantile(peak_ms, 0.5);
  layer["localization.ms_p50"] = 0.0;
  layer["localization.err_m_p50"] = 0.0;
  layer["localization.err_m_p90"] = 0.0;
  layer["locate.adapter_ms_p50"] = 0.0;
  layer["client.wire_retries"] = static_cast<double>(retries);
  layer["wire.bytes_per_range"] =
      ranges > 0 ? static_cast<double>(phase_bytes) / ranges : 0.0;
  std::vector<double> codec_us = span_durations_ms(spans, "wire.codec");
  for (double& v : codec_us) v *= 1e3;
  layer["wire.codec_us_p50"] = quantile(codec_us, 0.5);
  layer["daemon.demux_cpu_ms_per_range"] =
      ranges > 0 ? demux_cpu_s * 1e3 / ranges : 0.0;
  layer["daemon.wait_ms_p50"] = quantile(wait_ms, 0.5);

  const netd::DaemonStats& stats = rig.daemon->stats();
  const double offered = static_cast<double>(stats.admitted) +
                         static_cast<double>(stats.queue_full_rejections);
  layer["daemon.queue_full_ratio"] =
      offered > 0 ? static_cast<double>(stats.queue_full_rejections) / offered
                  : 0.0;
  const std::vector<std::size_t> shares = rig.daemon->shard_admitted();
  std::size_t total = 0, most = 0;
  for (std::size_t s = 0; s < shares.size(); ++s) {
    const std::size_t n = shares[s] - rig.warmup_admitted[s];
    total += n;
    most = std::max(most, n);
  }
  layer["daemon.shard_max_share"] =
      total > 0 ? static_cast<double>(most) / static_cast<double>(total) : 0.0;
  report_overhead(probe_mismatches, report);
}

}  // namespace

Report run_daemon_replay(const RunConfig& config) {
  Report report;
  SetupLog log;
  std::unique_ptr<Rig> rig =
      repeat_setup(report, log, [&] { return build_rig(config, log); });

  std::vector<Tally> tallies(kClients);
  std::atomic<bool> stop{false};
  std::uint64_t rounds = 0;
  report.phase_start_s = now_s();
  const double deadline = report.phase_start_s + config.seconds;
  auto on_round_end = [&]() noexcept {
    ++rounds;
    if (now_s() >= deadline) stop = true;
  };
  std::barrier sync(kClients, on_round_end);

  std::uint64_t bytes0 = 0;
  for (const auto& end : rig->ends) bytes0 += end->bytes();
  const double cpu0 = process_cpu_s();
  const double demux0 = thread_cpu_s(rig->serve_thread);
  rig->team->run([&](int c) {
    Tally& tally = tallies[static_cast<std::size_t>(c)];
    tally.calls.reserve(8192);
    netd::ChronosClient& client = *rig->clients[static_cast<std::size_t>(c)];
    for (std::uint64_t round = 0; !stop.load(); ++round) {
      const std::vector<std::size_t> order =
          round_order(*rig, config.seed, c, round);
      double before = reference_probe_s();
      tally.probe_s += before;
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const std::size_t link_index = order[pos];
        const Link& link = rig->links[link_index];
        CallSample plain;
        plain.index = (round * kClients + static_cast<std::uint64_t>(c)) *
                          rig->links.size() +
                      pos;
        const std::size_t first = tally.calls.size();
        std::optional<netd::RangingReply> reply, traced_reply;
        // As in the office workloads, a traced slot runs twice on identical
        // inputs, traced and untraced in alternating order. Slots are picked
        // by link, so every round admits the same requests.
        if (!config.trace || !traced_slot(link_index)) {
          reply = call_daemon(client, link, link_index, plain, tally);
        } else {
          CallSample traced = plain;
          traced.traced = true;
          if (traced_first(link_index)) {
            traced_reply = call_daemon(client, link, link_index, traced, tally);
            reply = call_daemon(client, link, link_index, plain, tally);
          } else {
            reply = call_daemon(client, link, link_index, plain, tally);
            traced_reply = call_daemon(client, link, link_index, traced, tally);
          }
        }
        const double after = reference_probe_s();
        tally.probe_s += after;
        for (std::size_t k = first; k < tally.calls.size(); ++k) {
          tally.calls[k].speed = speed_factor(before, after);
        }
        before = after;
        if (traced_reply && traced_reply->status.ok()) {
          if (!probe_call(*rig, link, plain.index, *traced_reply, tally,
                          round == 0)) {
            ++tally.probe_mismatches;
          }
          before = reference_probe_s();
          tally.probe_s += before;
        }
        // Round 0 is the exact pass: every link once.
        if (!reply || round != 0) continue;
        tally.round0_iterations.push_back(reply->solver_iterations);
        const auto code = reply->status.code();
        if (code == chronos::StatusCode::kIntegrityViolation ||
            code == chronos::StatusCode::kMalformedSweep) {
          ++tally.round0_rejects;
        }
        if (reply->status.ok()) {
          tally.tof_err_ns.push_back(
              std::abs(reply->tof_s - link.true_tof_s) * 1e9);
        }
      }
      sync.arrive_and_wait();
    }
  });
  const double demux_cpu_s = thread_cpu_s(rig->serve_thread) - demux0;
  report.phase_cpu_s = process_cpu_s() - cpu0;
  std::uint64_t bytes1 = 0;
  for (const auto& end : rig->ends) bytes1 += end->bytes();

  for (const Tally& t : tallies) {
    report.phase_probe_s += t.probe_s;
    report.calls.insert(report.calls.end(), t.calls.begin(), t.calls.end());
    report.tof_err_ns.insert(report.tof_err_ns.end(), t.tof_err_ns.begin(),
                             t.tof_err_ns.end());
    rig->replies += t.replies;
    rig->wire_retries += t.wire_retries;
    if (t.reply_problems > 0) {
      report.problems.push_back(std::to_string(t.reply_problems) +
                                " requests did not get exactly one reply");
    }
    if (t.nondeterministic > 0) {
      report.problems.push_back(std::to_string(t.nondeterministic) +
                                " replies differ from an earlier reply of "
                                "the same recorded link");
    }
    if (t.probe_mismatches > 0) {
      report.problems.push_back(std::to_string(t.probe_mismatches) +
                                " probe re-executions disagree with their "
                                "call");
    }
  }
  report.phase_end_s = report.phase_start_s;
  for (const CallSample& c : report.calls) {
    report.phase_end_s = std::max(report.phase_end_s, c.end_s);
  }
  report.notes.push_back(std::to_string(rounds) + " measured rounds of " +
                         std::to_string(rig->links.size()) +
                         " calls");

  // Stats are read once serve() has returned.
  rig->shutdown();
  const netd::DaemonStats& stats = rig->daemon->stats();
  if (stats.responses_sent != rig->replies + rig->wire_retries) {
    report.problems.push_back(
        "daemon sent " + std::to_string(stats.responses_sent) +
        " responses for " + std::to_string(rig->replies) + " replies and " +
        std::to_string(rig->wire_retries) + " queue-full retries");
  }
  if (config.trace) {
    per_layer(*rig, tallies, demux_cpu_s, bytes1 - bytes0, report);
    for (const auto& [name, ms] : log.medians_ms()) report.layer[name] = ms;
  }
  return report;
}

}  // namespace rangebench
