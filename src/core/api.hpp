// The backend-neutral public API (v2) of the Chronos ranging system.
//
// Everything a client needs to range, localize, and stream requests lives
// in the top-level `chronos::` namespace and is reachable through the
// umbrella header <chronos.hpp>:
//
//   * identity   — NodeId / AntennaRef name *which* radio is ranging
//                  against which; a NodeRegistry (implemented by every
//                  measurement backend) answers what ids exist and how
//                  many antennas they carry. Public request types carry
//                  ids only — never simulator structs — so recorded-trace
//                  and future live-capture deployments use the identical
//                  surface as the channel simulator.
//   * errors     — request-shaped failures (unknown node, antenna out of
//                  range, band mismatch, malformed sweep, full queue) are
//                  reported as chronos::Status / Result<T> values, never
//                  exceptions; one bad request in a batch yields one bad
//                  per-request status, not an aborted batch. Exceptions
//                  remain reserved for programmer error.
//   * flow ctrl  — RangingSession streams requests onto the engine's
//                  persistent worker pool through a bounded submission
//                  queue: try_submit reports kQueueFull immediately (never
//                  blocks, never drops), submit blocks for space. Batches
//                  are sessions too: measure_batch opens one, admits the
//                  requests and drains it.
//
// This header is simulator-free by contract: compiling a client with
// -DCHRONOS_NO_SIM_IN_PUBLIC_API proves no sim/ header leaks through it
// (the examples-public-api CTest/CI job does exactly that for
// examples/quickstart.cpp and examples/trace_replay.cpp).
//
// Code that composes its own backend (core/sweep_source.hpp) wraps it with
// Engine::adopt; the backend also supplies the calibration fixture's
// simulator model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <compare>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/localization.hpp"
#include "core/ranging.hpp"
#include "geom/vec2.hpp"
#include "mathx/rng.hpp"
#include "mathx/status.hpp"
#include "phy/csi.hpp"

namespace chronos {

namespace core {
class SweepSource;       // the backend seam (core/sweep_source.hpp)
struct ResolvedRequest;  // a request after backend resolution (same header)
}  // namespace core

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

/// Opaque, backend-neutral identity of one node (one radio/device). What an
/// id *means* is the backend's business: the simulator backend maps ids to
/// registered device descriptions, a trace backend to the capture-session
/// identity recorded in its trace keys.
struct NodeId {
  std::uint64_t value = 0;
  friend auto operator<=>(const NodeId&, const NodeId&) = default;
};

/// One specific antenna of one node.
struct AntennaRef {
  NodeId node;
  std::size_t antenna = 0;
  friend auto operator<=>(const AntennaRef&, const AntennaRef&) = default;
};

/// One unit of ranging work, v2: which antenna of which node ranges
/// against which antenna of which other node. Ids only — the backend's
/// NodeRegistry resolves them.
struct RangingRequest {
  AntennaRef tx;
  AntennaRef rx;
  friend auto operator<=>(const RangingRequest&, const RangingRequest&) =
      default;
};

/// One unit of localization work, v2 (see Engine::locate).
struct LocateRequest {
  NodeId tx;
  NodeId rx;
  std::optional<geom::Vec2> hint;
};

/// Directory interface every measurement backend implements: which node
/// ids exist, and how many antennas each carries. This is the identity
/// half of the backend seam; resolution to backend-internal descriptions
/// happens behind core::SweepSource.
class NodeRegistry {
 public:
  virtual ~NodeRegistry() = default;

  virtual bool has_node(NodeId id) const = 0;

  /// Number of antennas of `id`, or kUnknownNode.
  [[nodiscard]] virtual Result<std::size_t> antenna_count(NodeId id) const = 0;

  /// Every registered node id, ascending (diagnostics / enumeration).
  virtual std::vector<NodeId> nodes() const = 0;
};

// ---------------------------------------------------------------------------
// Batch + session option/result types
// ---------------------------------------------------------------------------

/// Which failures a RetryPolicy is allowed to retry: transient backend
/// outages and per-sweep corruption the detection gate rejected. Everything
/// else (unknown node, band mismatch, internal defect) is deterministic —
/// retrying it would yield the identical failure.
constexpr bool retryable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kIntegrityViolation ||
         code == StatusCode::kMalformedSweep;
}

/// Bounded retry for per-request ranging failures.
///
/// Attempt a (a >= 1) of ticket i re-draws its sweep from
/// ticket_stream.split(kRetryStreamTag + a) — a pure function of (seed,
/// ticket, attempt), so retried tickets stay bit-identical across thread
/// counts and scheduling (the determinism-under-faults test pins this).
/// When every allowed attempt fails with a retryable status, the result
/// reports kRetryExhausted wrapping the last attempt's diagnostic;
/// a non-retryable failure surfaces immediately, unwrapped.
struct RetryPolicy {
  /// Total attempts (first try included). 1 = no retries — bit-identical
  /// to the pre-retry pipeline. Retries run back to back, without a
  /// backoff sleep. A session (a batch included) refuses to open on a
  /// value outside [1, kMaxRetryAttempts] (mathx/stream_tags.hpp) with
  /// std::invalid_argument.
  int max_attempts = 1;
};

struct BatchOptions {
  /// Worker threads. 0 = one per hardware thread; 1 = run inline on the
  /// calling thread (the batch's session gets no pool, so callers on
  /// several threads never queue behind one shared worker). Clamped to the
  /// number of requests. Any value yields bit-identical results — this
  /// knob trades wall-clock only.
  int threads = 0;
  /// Per-request retry budget for retryable failures.
  RetryPolicy retry{};
};

struct BatchResult {
  /// results[i] corresponds to requests[i] (submission order, always).
  /// Per-request failures are reported in results[i].status — a bad
  /// request never aborts the rest of the batch.
  std::vector<core::RangingResult> results;
  /// Wall-clock diagnostics; informational only, NOT covered by the
  /// determinism contract.
  int threads_used = 1;
  double wall_time_s = 0.0;
};

struct SessionOptions {
  /// Maximum in-flight requests (admitted but not yet finished) before
  /// try_submit reports kQueueFull and submit blocks. The backpressure
  /// knob for sustained streaming ingestion.
  std::size_t queue_depth = 64;
  /// Worker threads of the engine pool backing the session (0 = one per
  /// hardware thread). Streaming sessions always range on the pool, so
  /// try_submit never waits for a solve.
  int threads = 0;
  /// Per-request retry budget for retryable failures.
  RetryPolicy retry{};
};

/// Full device-to-device localization output (Engine::locate).
struct LocateOutcome {
  /// v2: request-shaped failures land here (unknown node, a receiver
  /// without enough antennas, a backend without geometry); the remaining
  /// fields are meaningful only when status.ok().
  Status status;
  /// One joint fit of the TX position against every pair range.
  core::LocalizationResult result;
  /// Raw ranges of the *first* TX antenna to each RX anchor.
  std::vector<double> antenna_distances_m;
  /// Full pipeline output per (tx antenna, rx antenna) pair, tx-major.
  std::vector<core::RangingResult> details;
};

// ---------------------------------------------------------------------------
// Deployment descriptions (backend construction without backend headers)
// ---------------------------------------------------------------------------

/// Backend-neutral description of one node for registration: its id and
/// its antenna positions (metres, floor-plan frame). A simulated node's
/// radio personality (chain ripple) is seeded by its id. To give several
/// nodes one personality — e.g. one physical card swept over many
/// positions — register sim devices through core::SimSweepSource::add_node.
struct NodeSpec {
  NodeId id;
  std::vector<geom::Vec2> antennas;
};

/// Named simulated environments (the paper's testbeds).
enum class SimEnvironment {
  kOffice20x20,  ///< 20x20 m office with furniture-grade multipath (§12.1)
  kAnechoic,     ///< single-path reference chamber
  kDroneRoom6x5, ///< the 6x5 m VICON drone room (§12.4)
};

/// A simulator-backed deployment: an environment plus the initial node
/// directory. More nodes can be registered later via Engine::add_node.
struct SimDeployment {
  SimEnvironment environment = SimEnvironment::kOffice20x20;
  std::vector<NodeSpec> nodes;
};

/// One recorded link of a trace deployment: the id-level request it
/// answers, and the csi_io trace file holding its sweep(s).
struct TraceLink {
  RangingRequest link;
  std::string path;
};

/// A recorded-trace deployment: ranging replays these files; node identity
/// is derived from the link ids.
struct TraceDeployment {
  std::vector<TraceLink> links;
};

/// Engine options. The simulator model (sweep plan, noise and impairment
/// settings) is a backend concern: the engine sweeps and calibrates with
/// whatever its backend was built with.
struct EngineOptions {
  core::RangingConfig ranging;
  /// Sweeps averaged during fixture calibration.
  int calibration_sweeps = 4;
};

// ---------------------------------------------------------------------------
// Ranging session: the one ingestion primitive
// ---------------------------------------------------------------------------

/// A stream of ranging requests with a bounded submission queue for flow
/// control. Every ingestion path is a session: Engine::open_session hands
/// one out for streaming, Engine::measure_batch opens one, admits the
/// whole batch and drains it, and a session not drained yet is the
/// asynchronous batch.
///
/// Tickets are dense sequence numbers (0, 1, 2, ...) in admission order;
/// results are collected in that same order via next()/drain(). The
/// session forks the caller's rng ONCE when it opens; a request admitted
/// on stream index s draws from fork.split(s), where s is its ticket
/// unless the caller chose it (try_submit_resolved). A result is therefore
/// a pure function of (engine, request, session stream, s) — never of
/// scheduling, queue depth, pool size or collection timing.
///
/// A session co-owns everything its jobs touch (backend, pipeline,
/// calibration, pool), so it stays collectable after its engine is
/// destroyed. Destroying a session without draining it is safe: in-flight
/// work finishes and its results are dropped.
///
/// Error model: request-shaped failures never throw. Id-based submissions
/// that fail resolution are rejected synchronously (no ticket consumed);
/// backend failures during ranging land in the per-ticket
/// RangingResult::status; anything a job throws is a library defect and
/// fails that ticket alone with kInternal.
///
/// Thread model: one producer thread submits, any thread may collect;
/// submission and collection may overlap freely.
class RangingSession {
 public:
  RangingSession();  ///< invalid session; engines open real ones
  RangingSession(RangingSession&&) noexcept;
  RangingSession& operator=(RangingSession&&) noexcept;
  ~RangingSession();

  /// Engine-level construction (core/session.hpp, core::open_session).
  struct Impl;
  explicit RangingSession(std::unique_ptr<Impl> impl);

  bool valid() const;

  /// Admits `request` if the queue has room NOW: returns its ticket, or
  /// kQueueFull (the request is NOT enqueued — resubmit after collecting),
  /// or a registry/validation error. Never blocks. Capacity is checked
  /// BEFORE resolution (rejection is the hot path of a saturating
  /// producer), so a full queue reports kQueueFull even for a request
  /// that would not resolve.
  [[nodiscard]] Result<std::uint64_t> try_submit(const RangingRequest& request);

  /// Like try_submit, but blocks until queue space frees up. Returns
  /// registry/validation errors without blocking. Must not be called from
  /// a pool worker (a full queue would then deadlock against itself).
  [[nodiscard]] Result<std::uint64_t> submit(const RangingRequest& request);

  /// Engine-level admission of a request the caller already resolved:
  /// claims the next ticket if the queue has room NOW and ranges the
  /// request on stream index `stream`, so several sessions opened on the
  /// same rng state can share one global stream space (the netd daemon's
  /// shards). Returns the ticket, or nullopt when the queue is full
  /// (nothing enqueued). Never blocks.
  std::optional<std::uint64_t> try_submit_resolved(
      const core::ResolvedRequest& request, std::uint64_t stream);

  /// Claims the next ticket for a request that failed before admission
  /// (e.g. resolution failure inside a batch): its result is immediately
  /// complete, carrying `status`. Keeps batch results index-aligned with
  /// their requests without disturbing the streams of neighbours.
  std::uint64_t push_failed(Status status);

  std::size_t queue_depth() const;
  /// Tickets issued so far (== the next ticket to be issued).
  std::size_t submitted() const;
  /// Admitted but not yet finished (what the queue depth bounds).
  std::size_t in_flight() const;
  /// True when the next in-order result can be collected without blocking.
  bool next_ready() const;
  /// Blocks until the next in-order result is done, then returns it.
  /// Precondition: fewer results collected than submitted.
  core::RangingResult next();
  /// Collects every remaining result, in ticket order (blocks until done).
  std::vector<core::RangingResult> drain();

 private:
  std::unique_ptr<Impl> impl_;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The ranging engine: wires a measurement backend (any core::SweepSource
/// — the channel simulator standing in for a pair of Intel 5300 cards, a
/// recorded trace, ...) to the estimation pipeline behind a
/// backend-neutral, Status-based, simulator-free surface. Move-only;
/// construct through the factories: create_simulated and create_replay
/// build their backend, adopt() wraps an explicit one.
///
/// Threading model: every const method is safe to call concurrently from
/// multiple threads, provided each caller supplies its own mathx::Rng.
///
/// Persistent session pool: the first call needing parallelism lazily
/// starts an engine-owned worker pool that lives as long as the engine or
/// a session using it. Workers persist across batches, so their warmed
/// thread-local solver workspaces are reused; the pool grows (never
/// shrinks) when a later call asks for more threads. Pool management never
/// affects results, only wall clock.
class Engine {
 public:
  Engine();  ///< invalid engine (valid() == false); use the factories
  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  ~Engine();

  bool valid() const;

  /// Simulator-backed engine over a named environment, with `deployment`'s
  /// nodes pre-registered. kInvalidArgument on duplicate/invalid specs.
  [[nodiscard]] static Result<Engine> create_simulated(
      const SimDeployment& deployment, const EngineOptions& options = {});

  /// Recorded-trace engine: loads every link's csi_io file. Reports
  /// kMalformedSweep / kBandMismatch / file errors per the first failing
  /// link. Pair with set_calibration() for a recorded calibration table.
  [[nodiscard]] static Result<Engine> create_replay(
      const TraceDeployment& deployment, const EngineOptions& options = {});

  /// Wraps an explicit backend (power users composing their own
  /// core::SweepSource / band plans); the factories above end here. The
  /// pipeline's band plan comes from source->bands(), the calibration
  /// fixture's model from source->calibration_model().
  static Engine adopt(std::shared_ptr<core::SweepSource> source,
                      const EngineOptions& options = {});

  /// The backend's node directory.
  const NodeRegistry& registry() const;

  /// Registers (or replaces) a node on backends with a writable directory
  /// (simulator); kUnavailable on replay backends, whose directory is
  /// fixed by the recorded traces.
  [[nodiscard]] Status add_node(const NodeSpec& node);

  /// One-time fixture calibration of a device pair (paper §7): the pair
  /// in a simulated anechoic fixture 3 m apart, swept on the backend's
  /// calibration model and band plan. kUnknownNode for unregistered ids;
  /// kUnavailable on backends without device descriptions (install a
  /// recorded table instead).
  [[nodiscard]] Status calibrate(NodeId tx, NodeId rx, mathx::Rng& rng);

  /// Installs a pre-computed calibration table (e.g. recorded alongside a
  /// trace campaign). kBandMismatch, keeping the installed table, when a
  /// non-empty table's correction count differs from the band plan's.
  [[nodiscard]] Status set_calibration(core::CalibrationTable calibration);
  const core::CalibrationTable& calibration() const;

  /// Time-of-flight / distance for one request. Resolution failures and
  /// detection-gate rejections come back as the Status.
  [[nodiscard]] Result<core::RangingResult> measure(
      const RangingRequest& request, mathx::Rng& rng) const;

  /// The raw calibrated sweep `request` would measure — for recording
  /// campaigns (phy::save_sweep) and diagnostics. Draws from `rng` exactly
  /// like measure() does before estimation.
  [[nodiscard]] Result<phy::SweepMeasurement> capture_sweep(
      const RangingRequest& request, mathx::Rng& rng) const;

  /// Runs the estimation pipeline on an externally produced sweep (e.g.
  /// one loaded with phy::try_load_sweep), using this engine's calibration:
  /// kMalformedSweep when phy::check_sweep rejects the sweep, kBandMismatch
  /// when phy::check_plan finds it off this engine's band plan.
  [[nodiscard]] Result<core::RangingResult> estimate(
      const phy::SweepMeasurement& sweep) const;

  /// Ranges every request through a session that is drained before
  /// returning; results in request order, one status per result (a
  /// request that fails resolution keeps its slot), bit-identical for
  /// every thread count. Advances `rng` by exactly one fork().
  BatchResult measure_batch(std::span<const RangingRequest> requests,
                            mathx::Rng& rng,
                            const BatchOptions& options = {}) const;

  /// Opens a streaming session on the persistent pool. Forks `rng` once;
  /// ticket i then draws from split stream i, so a session submitted one
  /// request at a time is bit-identical to measure_batch over the same
  /// requests on the same rng state.
  RangingSession open_session(mathx::Rng& rng,
                              const SessionOptions& options = {}) const;

  /// Device-to-device localization (paper §8): ranges every TX antenna
  /// against every RX antenna (tx-major, one measure_batch) and
  /// trilaterates in the RX's frame. Requires a backend with node geometry
  /// (simulator) and a receiver with >= 2 antennas. `options` sizes the
  /// worker fan-out; results are identical for every setting.
  [[nodiscard]] Result<LocateOutcome> locate(
      NodeId tx, NodeId rx, mathx::Rng& rng,
      const std::optional<geom::Vec2>& hint = std::nullopt,
      const BatchOptions& options = {}) const;

  /// Runs many independent localizations concurrently, one pool job per
  /// request (each job ranges its pairs inline). Request i draws from its
  /// own split stream, so results are bit-identical for every thread count
  /// and equal locate() on that stream. Advances `rng` by exactly one
  /// fork(). Per-request failures land in outcome[i].status.
  std::vector<LocateOutcome> locate_batch(
      std::span<const LocateRequest> requests, mathx::Rng& rng,
      const BatchOptions& options = {}) const;

  /// Stable backend identifier ("sim", "trace", ...).
  std::string backend_name() const;

  /// Size of the persistent session pool (0 until first needed).
  /// Diagnostics only — never affects results.
  std::size_t session_threads() const;

 private:
  struct Impl;
  explicit Engine(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace chronos
