#include "netd/daemon.hpp"

#include <limits>
#include <utility>

#include "core/integrity.hpp"
#include "core/session.hpp"
#include "core/worker_pool.hpp"
#include "mathx/contracts.hpp"

namespace chronos::netd {

/// What serve() sleeps on between passes: a count of rings under a mutex.
/// serve() reads the count before a pass and sleeps only while it has not
/// moved since, so no ring is lost. Wall clock is never read.
struct ChronosDaemon::Doorbell {
  chronos::Mutex mutex;
  chronos::CondVar rung;
  std::uint64_t rings CHRONOS_GUARDED_BY(mutex) = 0;

  void ring() {
    {
      chronos::MutexLock lock(mutex);
      ++rings;
    }
    rung.notify_one();
  }

  std::uint64_t count() {
    chronos::MutexLock lock(mutex);
    return rings;
  }

  void wait_past(std::uint64_t seen) {
    chronos::MutexLock lock(mutex);
    rung.wait(mutex, [&]() CHRONOS_REQUIRES(mutex) { return rings != seen; });
  }
};

ChronosDaemon::ChronosDaemon(std::shared_ptr<const core::SweepSource> source,
                             const core::RangingConfig& config,
                             core::CalibrationTable calibration,
                             mathx::Rng& rng, const DaemonOptions& options)
    : source_(std::move(source)),
      calibration_(std::make_shared<const core::CalibrationTable>(
          std::move(calibration))),
      doorbell_(std::make_shared<Doorbell>()) {
  CHRONOS_EXPECTS(source_ != nullptr, "ChronosDaemon requires a SweepSource");
  CHRONOS_EXPECTS(calibration_->empty() || calibration_->correction.size() ==
                                               source_->bands().size(),
                  "ChronosDaemon calibration table must match the band plan");
  // HelloAck advertises both in fixed-width fields: a larger value would
  // reach clients truncated, possibly as 0.
  constexpr std::size_t kMaxShards =
      std::numeric_limits<decltype(HelloAckFrame::shards)>::max();
  constexpr std::size_t kMaxDepth =
      std::numeric_limits<decltype(HelloAckFrame::queue_depth)>::max();
  CHRONOS_EXPECTS(options.shards >= 1 && options.shards <= kMaxShards,
                  "ChronosDaemon requires shards in [1, 65535]");
  CHRONOS_EXPECTS(
      options.shard_queue_depth >= 1 && options.shard_queue_depth <= kMaxDepth,
      "ChronosDaemon requires shard_queue_depth in [1, 2^32 - 1]");
  CHRONOS_EXPECTS(
      options.shard_threads >= 1 &&
          options.shard_threads <=
              std::numeric_limits<std::size_t>::max() / options.shards,
      "ChronosDaemon requires shard_threads >= 1, and shards x "
      "shard_threads to fit a size_t");

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

  // One pool ranges for every shard: a shard bounds and orders its own
  // requests, but any free worker ranges them. Every shard session forks a
  // copy of the SAME rng state, so all shards share one base stream,
  // addressed by global ticket; the caller's rng then advances by that one
  // fork, exactly like measure_batch.
  const auto pool = std::make_shared<core::WorkerPool>(options.shards *
                                                       options.shard_threads);
  const mathx::Rng start = rng;
  shards_.reserve(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    Shard shard;
    rng = start;
    shard.session = core::open_session(
        pool, source_, pipeline_, calibration_, rng, options.shard_queue_depth,
        {}, [doorbell = doorbell_]() { doorbell->ring(); });
    shards_.push_back(std::move(shard));
  }
}

void ChronosDaemon::attach(std::shared_ptr<Stream> connection) {
  CHRONOS_EXPECTS(connection != nullptr, "attach requires a stream");
  const bool rings =
      connection->set_wake([doorbell = doorbell_]() { doorbell->ring(); });
  CHRONOS_EXPECTS(rings,
                  "attach requires a stream that can wake serve() "
                  "(Stream::set_wake)");
  auto conn = std::make_shared<Connection>();
  conn->stream = std::move(connection);
  {
    chronos::MutexLock lock(attach_mu_);
    pending_attach_.push_back(std::move(conn));
  }
  doorbell_->ring();
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

void ChronosDaemon::handle_frame(const std::shared_ptr<Connection>& handle,
                                 const Frame& frame) {
  Connection& conn = *handle;
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
      shard.pending.emplace_back(handle, req.request_id);
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

void ChronosDaemon::pump_connection(const std::shared_ptr<Connection>& handle) {
  Connection& conn = *handle;
  if (conn.dead) return;

  // try_recv appends, so the reused buffer is emptied first.
  conn.recv_buffer.clear();
  chronos::Result<std::size_t> got = conn.stream->try_recv(conn.recv_buffer);
  if (got.ok() && got.value() > 0) conn.parser.feed(conn.recv_buffer);

  Frame frame;
  while (!conn.dead) {
    const FrameParser::Poll poll = conn.parser.poll(frame);
    if (poll == FrameParser::Poll::kFrame) {
      handle_frame(handle, frame);
      continue;
    }
    if (poll == FrameParser::Poll::kError) {
      // Framing lost: nothing after the damage can be trusted, so the
      // connection is poisoned and closed (replies in flight are dropped).
      ++stats_.malformed_frames;
      conn.stream->close();
      conn.dead = true;
      conn.done_reading = true;
    }
    break;
  }

  // closed() means every byte the peer sent has been taken and parsed, so
  // a partial frame left in the parser can never complete.
  if (!conn.dead && !conn.done_reading && conn.stream->closed()) {
    conn.done_reading = true;  // peer hung up without a goodbye
  }
}

void ChronosDaemon::pump_shards() {
  for (Shard& shard : shards_) {
    while (!shard.pending.empty() && shard.session.next_ready()) {
      const core::RangingResult result = shard.session.next();
      const auto [conn, request_id] = std::move(shard.pending.front());
      shard.pending.pop_front();
      if (!conn->dead) {
        encode_buffer_.clear();
        encode_response(encode_buffer_,
                        ResponseFrame::of(request_id, result));
        send_frame(*conn, encode_buffer_);
        ++stats_.responses_sent;
      }
      if (conn->outstanding > 0) --conn->outstanding;
    }
  }
}

void ChronosDaemon::serve() {
  for (;;) {
    // Read before the pass: whatever rings during it moves the count past
    // `seen`, so the wait at the bottom cannot sleep through it.
    const std::uint64_t seen = doorbell_->count();
    {
      chronos::MutexLock lock(attach_mu_);
      for (auto& conn : pending_attach_) {
        connections_.push_back(std::move(conn));
      }
      pending_attach_.clear();
    }

    // One pass handles everything buffered: every whole frame of every
    // connection, then every result the shards can deliver in order.
    for (const auto& conn : connections_) pump_connection(conn);
    pump_shards();

    for (const auto& conn : connections_) {
      if (!conn->dead && conn->done_reading && conn->outstanding == 0) {
        // Fully served: every admitted request answered, peer finished.
        conn->stream->close();
        conn->dead = true;
      }
    }
    // A dead connection awaiting no reply is done for good. Every pending
    // reply's connection stays in the table, so an empty table also means
    // every shard has drained.
    std::erase_if(connections_, [](const std::shared_ptr<Connection>& conn) {
      return conn->dead && conn->outstanding == 0;
    });
    if (connections_.empty()) return;

    doorbell_->wait_past(seen);
  }
}

}  // namespace chronos::netd
