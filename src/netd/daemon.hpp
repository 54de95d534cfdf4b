// chronosd: the sharded ranging daemon frontend.
//
// One ChronosDaemon owns the backend directory (its SweepSource doubles as
// the NodeRegistry), one RangingPipeline, one WorkerPool and N shards. A
// shard is an admission and ordering domain, not a set of threads: one
// RangingSession with its own bounded queue, whose results go out in the
// order it admitted them, and whose jobs run on the pool every shard
// shares (shards x shard_threads workers). So a request routed to a busy
// shard starts on whichever worker is free instead of queueing behind
// that shard's solve. Every shard ranges through the same immutable
// pipeline (its methods are const, and the solver's workspaces are per
// thread, so shards share no mutable solve state). Requests route to
// shards by a splitmix64 hash of the transmitter NodeId, so every request
// of a given transmitter is admitted through one shard's bounded queue
// and answered in its admission order.
//
// Determinism over the wire (the loopback e2e test pins this): every shard
// session opens on a copy of the SAME rng state, so all shards share the
// base stream one fork of the caller's rng yields, and the caller's rng
// advances by that one fork — exactly like every in-process ingestion
// path. Admission order on the single demux thread assigns each admitted
// request a dense GLOBAL ticket g, and the routed shard ranges it as one
// job, in one attempt, on base.split(g) (RangingSession::try_submit_resolved
// with stream index g). Whatever the shard count, worker count, client
// count, or kQueueFull retry interleaving, the results the daemon sends
// are bit-identical to Engine::measure_batch(admitted_requests()) on the
// same starting rng state.
//
// Backpressure: a request landing on a full shard queue is answered
// immediately with a kQueueFull response (echoing its request_id) and
// consumes NO global ticket — the client resubmits and the request is
// simply admitted later, as if it had arrived later. Resolution failures
// DO consume a ticket (push_failed), mirroring batch index alignment.
//
// Trust boundary: clients are untrusted by default — the pipeline is
// built with IntegrityConfig::hostile() armed, so spoofed/corrupted
// sweeps surface as per-request kIntegrityViolation instead of skewing
// ranges (paper's adversary model; see core/integrity.hpp). Deployments
// that own both ends can set DaemonOptions::trusted_clients.
//
// Thread model: attach() from any thread; serve() runs the single demux
// loop (recv/parse/route/reply) on the calling thread until every
// attached connection has said goodbye (or closed) and drained. Between
// passes it sleeps on a doorbell instead of polling: attach(), every
// completed job (open_session's completion callback) and every attached
// stream (Stream::set_wake: bytes arrived or the pipe closed) ring it. A
// pass starts by reading how often the doorbell has rung and handles
// everything buffered; serve() sleeps only until the count moves, so a
// ring during a pass is never slept through. A dead connection that
// awaits no reply leaves the connection table in the pass that finds it.
// serve() with no attachments returns immediately — attach first, then
// serve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/api.hpp"
#include "core/calibration.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "mathx/annotations.hpp"
#include "mathx/rng.hpp"
#include "netd/loopback.hpp"
#include "netd/wire.hpp"

namespace chronos::netd {

/// splitmix64 finalizer: the NodeId -> shard router. A dedicated mixer
/// (rather than `value % shards`) because deployments commonly assign
/// node ids sequentially — without mixing, ids 0..k-1 over k shards would
/// alias whole deployments onto shard patterns that change with the shard
/// count in trivially-correlated ways. The distribution-stability test
/// pins these exact constants: changing them silently re-routes every
/// deployment.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct DaemonOptions {
  /// Admission and ordering domains, in [1, 65535] (HelloAck's u16).
  std::size_t shards = 1;
  /// Bounded queue depth of EACH shard session (kQueueFull beyond it), in
  /// [1, 2^32 - 1] (HelloAck's u32).
  std::size_t shard_queue_depth = 64;
  /// Workers per shard (>= 1) in the pool all shards share: the daemon
  /// starts shards x shard_threads of them, and any of them ranges any
  /// shard's requests.
  std::size_t shard_threads = 1;
  /// When false (default), the daemon's pipeline replaces the caller's
  /// RangingConfig::integrity with IntegrityConfig::hostile().
  bool trusted_clients = false;
};

/// Monotonic counters the demux loop maintains (read after serve()).
struct DaemonStats {
  std::uint64_t admitted = 0;            ///< global tickets issued
  std::uint64_t failed_resolution = 0;   ///< admitted via push_failed
  std::uint64_t queue_full_rejections = 0;
  std::uint64_t malformed_frames = 0;    ///< connections poisoned
  std::uint64_t hello_frames = 0;
  std::uint64_t responses_sent = 0;
};

class ChronosDaemon {
 public:
  /// `source` is the backend (directory + sweeps); `config` the ranging
  /// configuration the shards' one pipeline is built from (with hostile
  /// integrity unless trusted_clients); `calibration` is shared by all
  /// shards and must be empty or hold one correction per band of
  /// source->bands(). Forks `rng` exactly once.
  ChronosDaemon(std::shared_ptr<const core::SweepSource> source,
                const core::RangingConfig& config,
                core::CalibrationTable calibration, mathx::Rng& rng,
                const DaemonOptions& options = {});

  ChronosDaemon(const ChronosDaemon&) = delete;
  ChronosDaemon& operator=(const ChronosDaemon&) = delete;

  /// Registers a client connection (the daemon-side endpoint). Callable
  /// from any thread, but only before or during serve(). Throws
  /// std::invalid_argument for a stream whose set_wake() refuses: serve()
  /// would sleep through its traffic.
  void attach(std::shared_ptr<Stream> connection);

  /// Runs the demux loop until every attached connection is done (goodbye
  /// or close) and every admitted request has been answered.
  void serve();

  std::size_t shards() const { return shards_.size(); }
  std::size_t shard_of_node(chronos::NodeId id) const {
    return shards_.size() <= 1
               ? 0
               : static_cast<std::size_t>(mix64(id.value) % shards_.size());
  }

  /// Every admitted request, in global-ticket order — the batch the run
  /// is bit-equivalent to (the e2e test replays it through measure_batch).
  const std::vector<chronos::RangingRequest>& admitted_requests() const {
    return admitted_;
  }
  /// Global tickets admitted per shard (distribution diagnostics): each
  /// shard session's submitted() count, since every admission claims one
  /// local ticket of its shard. They sum to stats().admitted.
  std::vector<std::size_t> shard_admitted() const;
  const DaemonStats& stats() const { return stats_; }
  /// Connections the demux loop holds: adopted, and alive or still owed a
  /// reply. Read after serve(), which leaves none.
  std::size_t connection_count() const { return connections_.size(); }
  /// The pipeline shard `shard` ranges with: the one every shard shares.
  const core::RangingPipeline& shard_pipeline(std::size_t shard) const;

 private:
  struct Doorbell;

  struct Connection {
    std::shared_ptr<Stream> stream;
    /// Receive buffer reused across passes (pump_connection clears it).
    std::vector<std::uint8_t> recv_buffer;
    FrameParser parser;
    std::size_t outstanding = 0;  ///< admitted, not yet answered
    bool done_reading = false;  ///< goodbye seen or peer closed
    bool dead = false;          ///< closed (normally or poisoned)
  };

  struct Shard {
    chronos::RangingSession session;
    /// Wire metadata of in-flight local tickets, FIFO: local tickets are
    /// dense and next() collects in local-ticket order, so front() is
    /// always the metadata of the next result. The connection handle
    /// stays valid whatever the connection table erases meanwhile.
    std::deque<std::pair<std::shared_ptr<Connection>, std::uint64_t>>
        pending;  // (conn, id)
  };

  /// The demux loop's steps: read and handle every whole frame a
  /// connection has buffered; send every result the shards can deliver in
  /// order.
  void pump_connection(const std::shared_ptr<Connection>& conn);
  void pump_shards();
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const Frame& frame);
  void send_frame(Connection& conn, const std::vector<std::uint8_t>& bytes);

  std::shared_ptr<const core::SweepSource> source_;
  std::shared_ptr<const core::CalibrationTable> calibration_;
  std::shared_ptr<const core::RangingPipeline> pipeline_;
  /// Shared with every ring site (shard sessions, attached streams), which
  /// may still be ringing after serve() has returned.
  std::shared_ptr<Doorbell> doorbell_;
  std::vector<Shard> shards_;
  std::vector<chronos::RangingRequest> admitted_;
  DaemonStats stats_;
  std::vector<std::uint8_t> encode_buffer_;  ///< reused across frames

  chronos::Mutex attach_mu_;
  std::vector<std::shared_ptr<Connection>> pending_attach_
      CHRONOS_GUARDED_BY(attach_mu_);
  /// Demux-thread-owned once adopted from pending_attach_.
  std::vector<std::shared_ptr<Connection>> connections_;
};

}  // namespace chronos::netd
