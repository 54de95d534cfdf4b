#include "netd/daemon.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "core/integrity.hpp"
#include "core/session.hpp"
#include "core/worker_pool.hpp"
#include "mathx/contracts.hpp"

namespace chronos::netd {

ChronosDaemon::ChronosDaemon(std::shared_ptr<const core::SweepSource> source,
                             const core::RangingConfig& config,
                             core::CalibrationTable calibration,
                             mathx::Rng& rng, const DaemonOptions& options)
    : source_(std::move(source)),
      calibration_(std::make_shared<const core::CalibrationTable>(
          std::move(calibration))) {
  CHRONOS_EXPECTS(source_ != nullptr, "ChronosDaemon requires a SweepSource");
  CHRONOS_EXPECTS(calibration_->empty() || calibration_->correction.size() ==
                                               source_->bands().size(),
                  "ChronosDaemon calibration table must match the band plan");
  CHRONOS_EXPECTS(options.shards >= 1, "ChronosDaemon requires >= 1 shard");
  CHRONOS_EXPECTS(options.shard_queue_depth >= 1,
                  "ChronosDaemon requires shard_queue_depth >= 1");
  CHRONOS_EXPECTS(options.shard_threads >= 1,
                  "ChronosDaemon requires shard_threads >= 1");

  core::RangingConfig shard_config = config;
  if (!options.trusted_clients) {
    // The wire is the trust boundary: frames may come from anyone, so the
    // full hostile-sweep gate screens every request (core/integrity.hpp).
    shard_config.integrity = core::IntegrityConfig::hostile();
  }
  // One immutable pipeline serves every shard, as one serves every session
  // of an Engine: its methods are const and the solver's scratch is per
  // thread.
  pipeline_ = std::make_shared<const core::RangingPipeline>(source_->bands(),
                                                             shard_config);

  // Every shard session forks a copy of the SAME rng state, so all shards
  // share one base stream, addressed by global ticket; the caller's rng
  // then advances by that one fork, exactly like measure_batch.
  const mathx::Rng start = rng;
  shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    Shard shard;
    rng = start;
    shard.session = core::open_session(
        std::make_shared<core::WorkerPool>(options.shard_threads), source_,
        pipeline_, calibration_, rng, options.shard_queue_depth);
    shards_.push_back(std::move(shard));
  }
}

void ChronosDaemon::attach(std::shared_ptr<Stream> connection) {
  CHRONOS_EXPECTS(connection != nullptr, "attach requires a stream");
  auto conn = std::make_shared<Connection>();
  conn->stream = std::move(connection);
  chronos::MutexLock lock(attach_mu_);
  pending_attach_.push_back(std::move(conn));
}

std::vector<std::size_t> ChronosDaemon::shard_admitted() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const Shard& s : shards_) counts.push_back(s.session.submitted());
  return counts;
}

const core::RangingPipeline& ChronosDaemon::shard_pipeline(
    std::size_t shard) const {
  CHRONOS_EXPECTS(shard < shards_.size(), "shard index out of range");
  return *pipeline_;
}

void ChronosDaemon::send_frame(Connection& conn,
                               const std::vector<std::uint8_t>& bytes) {
  // A send failing because the peer vanished is not a daemon error: the
  // result was computed deterministically either way; the reply is simply
  // undeliverable.
  (void)conn.stream->send(bytes);
}

void ChronosDaemon::handle_frame(std::size_t conn_index, const Frame& frame) {
  Connection& conn = *connections_[conn_index];
  switch (frame.type) {
    case FrameType::kHello: {
      ++stats_.hello_frames;
      encode_buffer_.clear();
      HelloAckFrame ack;
      ack.version = kWireVersion;
      ack.shards = static_cast<std::uint16_t>(shards_.size());
      ack.queue_depth =
          static_cast<std::uint32_t>(shards_.front().session.queue_depth());
      encode_hello_ack(encode_buffer_, ack);
      send_frame(conn, encode_buffer_);
      return;
    }

    case FrameType::kGoodbye:
      conn.done_reading = true;
      return;

    case FrameType::kRequest: {
      const RequestFrame& req = frame.request;
      Shard& shard = shards_[shard_of_node(req.request.tx.node)];
      chronos::Result<core::ResolvedRequest> resolved =
          source_->resolve(req.request);
      if (!resolved.ok()) {
        // Mirrors batch semantics: a resolution failure still consumes a
        // global ticket (push_failed keeps results index-aligned without
        // disturbing neighbours' streams).
        ++stats_.failed_resolution;
        (void)shard.session.push_failed(resolved.status());
      } else if (!shard.session.try_submit_resolved(resolved.value(),
                                                    stats_.admitted)) {
        // Backpressure: immediate kQueueFull reply, NO global ticket — a
        // resubmission is admitted later exactly as a later arrival.
        ++stats_.queue_full_rejections;
        encode_buffer_.clear();
        ResponseFrame resp;
        resp.request_id = req.request_id;
        resp.code = chronos::StatusCode::kQueueFull;
        resp.message = "shard queue full; resubmit";
        encode_response(encode_buffer_, resp);
        send_frame(conn, encode_buffer_);
        ++stats_.responses_sent;
        return;
      }
      // Admitted: the request took global ticket stats_.admitted (its
      // stream index) and one local ticket of its shard.
      admitted_.push_back(req.request);
      ++stats_.admitted;
      shard.pending.emplace_back(conn_index, req.request_id);
      ++conn.outstanding;
      return;
    }

    // Daemon-bound streams must never carry daemon-to-client frames;
    // treat them like any other framing damage and drop the connection.
    case FrameType::kHelloAck:
    case FrameType::kResponse:
      ++stats_.malformed_frames;
      conn.stream->close();
      conn.dead = true;
      conn.done_reading = true;
      return;
  }
}

bool ChronosDaemon::pump_connection(std::size_t conn_index) {
  Connection& conn = *connections_[conn_index];
  if (conn.dead) return false;
  bool progress = false;

  // try_recv appends, so the reused buffer is emptied first.
  conn.recv_buffer.clear();
  chronos::Result<std::size_t> got = conn.stream->try_recv(conn.recv_buffer);
  if (got.ok() && got.value() > 0) {
    conn.parser.feed(conn.recv_buffer);
    progress = true;
  }

  Frame frame;
  while (!conn.dead) {
    const FrameParser::Poll poll = conn.parser.poll(frame);
    if (poll == FrameParser::Poll::kFrame) {
      handle_frame(conn_index, frame);
      progress = true;
      continue;
    }
    if (poll == FrameParser::Poll::kError) {
      // Framing lost: nothing after the damage can be trusted, so the
      // connection is poisoned and closed (replies in flight are dropped).
      ++stats_.malformed_frames;
      conn.stream->close();
      conn.dead = true;
      conn.done_reading = true;
      progress = true;
    }
    break;
  }

  if (!conn.dead && !conn.done_reading && conn.stream->closed() &&
      conn.parser.buffered() == 0) {
    conn.done_reading = true;  // peer hung up without a goodbye
    progress = true;
  }
  return progress;
}

bool ChronosDaemon::pump_shards() {
  bool progress = false;
  for (Shard& shard : shards_) {
    while (!shard.pending.empty() && shard.session.next_ready()) {
      const core::RangingResult result = shard.session.next();
      const auto [conn_index, request_id] = shard.pending.front();
      shard.pending.pop_front();
      Connection& conn = *connections_[conn_index];
      if (!conn.dead) {
        encode_buffer_.clear();
        encode_response(encode_buffer_,
                        ResponseFrame::of(request_id, result));
        send_frame(conn, encode_buffer_);
        ++stats_.responses_sent;
      }
      if (conn.outstanding > 0) --conn.outstanding;
      progress = true;
    }
  }
  return progress;
}

void ChronosDaemon::serve() {
  int idle_spins = 0;
  for (;;) {
    bool progress = false;

    {
      chronos::MutexLock lock(attach_mu_);
      for (auto& conn : pending_attach_) {
        connections_.push_back(std::move(conn));
        progress = true;
      }
      pending_attach_.clear();
    }

    for (std::size_t i = 0; i < connections_.size(); ++i) {
      if (pump_connection(i)) progress = true;
    }
    if (pump_shards()) progress = true;

    bool all_done = true;
    for (auto& conn : connections_) {
      if (!conn->dead && conn->done_reading && conn->outstanding == 0) {
        // Fully served: every admitted request answered, peer finished.
        conn->stream->close();
        conn->dead = true;
        progress = true;
      }
      if (!conn->dead) all_done = false;
    }
    bool shards_drained = true;
    for (const Shard& shard : shards_) {
      if (!shard.pending.empty()) shards_drained = false;
    }
    if (all_done && shards_drained) return;

    if (progress) {
      idle_spins = 0;
    } else if (++idle_spins < 64) {
      std::this_thread::yield();
    } else {
      // Purely a CPU-courtesy pause while shards compute; wall clock is
      // never read, so results cannot depend on this.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

}  // namespace chronos::netd
