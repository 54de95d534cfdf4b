#include "core/api.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/session.hpp"
#include "core/sweep_source.hpp"
#include "core/worker_pool.hpp"
#include "mathx/annotations.hpp"
#include "mathx/contracts.hpp"
#include "mathx/stream_tags.hpp"
#include "sim/environment.hpp"
#include "sim/radio.hpp"

namespace chronos {

// ------------------------------------------------------------------ Engine

struct Engine::Impl {
  EngineOptions options;
  std::shared_ptr<core::SweepSource> source;
  // Pipeline and calibration live behind shared_ptrs so sessions co-own
  // them: a session stays collectable after the engine is gone, and a
  // calibrate()/set_calibration() while sessions are open swaps the table
  // without pulling it out from under them.
  std::shared_ptr<const core::RangingPipeline> pipeline;
  std::shared_ptr<const core::CalibrationTable> calibration;

  mutable Mutex pool_mutex;
  /// Lazily-built grow-never-shrink session pool. Guarded: a concurrent
  /// grow swaps the shared_ptr, and readers must never observe the swap
  /// mid-write — they take their own reference under the lock and use it
  /// outside (the pointee is independently thread-safe).
  mutable std::shared_ptr<core::WorkerPool> pool CHRONOS_GUARDED_BY(pool_mutex);

  /// The session pool, lazily started / grown to >= `threads` workers.
  /// Callers receive a shared reference, so a concurrent grow can never
  /// destroy a pool under an open session.
  std::shared_ptr<core::WorkerPool> session_pool(int threads) const {
    const auto wanted = static_cast<std::size_t>(std::max(threads, 1));
    MutexLock lock(pool_mutex);
    if (!pool || pool->size() < wanted) {
      // Grow by replacement (WorkerPool is fixed-size by design). The old
      // pool stays alive through the sessions still using it.
      pool = std::make_shared<core::WorkerPool>(wanted);
    }
    return pool;
  }

  RangingSession open(std::shared_ptr<core::WorkerPool> workers,
                      mathx::Rng& rng, std::size_t queue_depth,
                      const RetryPolicy& retry) const {
    return core::open_session(std::move(workers), source, pipeline,
                              calibration, rng, queue_depth, retry);
  }
};

namespace {

/// Threads a batch of `n_requests` actually uses under `options`.
int batch_threads(const BatchOptions& options, std::size_t n_requests) {
  CHRONOS_EXPECTS(options.threads >= 0, "batch threads must be >= 0");
  std::size_t n = options.threads == 0
                      ? core::WorkerPool::default_thread_count()
                      : static_cast<std::size_t>(options.threads);
  n = std::min(n, std::max<std::size_t>(1, n_requests));
  return static_cast<int>(n);
}

/// Known separation of the calibration fixture's radios [m].
constexpr double kCalibrationDistanceM = 3.0;

[[nodiscard]] Status check_node_spec(const NodeSpec& spec) {
  if (spec.antennas.empty()) {
    return {StatusCode::kInvalidArgument,
            "node " + std::to_string(spec.id.value) +
                " needs at least one antenna position"};
  }
  return Status::Ok();
}

sim::Device to_device(const NodeSpec& spec) {
  return sim::Device(spec.id.value, spec.antennas);
}

sim::Environment named_environment(SimEnvironment environment) {
  switch (environment) {
    case SimEnvironment::kOffice20x20: return sim::office_20x20();
    case SimEnvironment::kAnechoic: return sim::anechoic();
    case SimEnvironment::kDroneRoom6x5: return sim::drone_room_6x5();
  }
  CHRONOS_EXPECTS(false, "unknown SimEnvironment");
}

}  // namespace

Engine::Engine() = default;
Engine::Engine(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

bool Engine::valid() const { return impl_ != nullptr; }

Engine Engine::adopt(std::shared_ptr<core::SweepSource> source,
                     const EngineOptions& options) {
  CHRONOS_EXPECTS(source != nullptr, "an engine needs a sweep source");
  auto impl = std::make_unique<Impl>();
  impl->pipeline = std::make_shared<const core::RangingPipeline>(
      source->bands(), options.ranging);
  impl->calibration = std::make_shared<const core::CalibrationTable>();
  impl->options = options;
  impl->source = std::move(source);
  return Engine(std::move(impl));
}

Result<Engine> Engine::create_simulated(const SimDeployment& deployment,
                                        const EngineOptions& options) {
  auto source = std::make_shared<core::SimSweepSource>(
      named_environment(deployment.environment), sim::LinkSimConfig{});
  std::set<std::uint64_t> seen;
  for (const auto& spec : deployment.nodes) {
    if (auto s = check_node_spec(spec); !s.ok()) return s;
    if (!seen.insert(spec.id.value).second) {
      return Status{StatusCode::kInvalidArgument,
                    "duplicate node id " + std::to_string(spec.id.value)};
    }
    source->add_node(spec.id, to_device(spec));
  }
  return adopt(std::move(source), options);
}

Result<Engine> Engine::create_replay(const TraceDeployment& deployment,
                                     const EngineOptions& options) {
  if (deployment.links.empty()) {
    return Status{StatusCode::kInvalidArgument,
                  "a trace deployment needs at least one recorded link"};
  }
  auto source = std::make_shared<core::TraceSweepSource>();
  for (const auto& link : deployment.links) {
    const auto status =
        source->try_add_sweep_file(core::TraceKey::of(link.link), link.path);
    if (!status.ok()) {
      return Status{status.code(), link.path + ": " + status.message()};
    }
  }
  return adopt(std::move(source), options);
}

const NodeRegistry& Engine::registry() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "registry() on an invalid engine");
  return *impl_->source;
}

Status Engine::add_node(const NodeSpec& spec) {
  CHRONOS_EXPECTS(impl_ != nullptr, "add_node() on an invalid engine");
  if (auto s = check_node_spec(spec); !s.ok()) return s;
  auto* sim_source = dynamic_cast<core::SimSweepSource*>(impl_->source.get());
  if (sim_source == nullptr) {
    return {StatusCode::kUnavailable,
            "backend '" + impl_->source->backend_name() +
                "' has a fixed node directory"};
  }
  sim_source->add_node(spec.id, to_device(spec));
  return Status::Ok();
}

// ------------------------------------------------------------- calibration

Status Engine::calibrate(NodeId tx, NodeId rx, mathx::Rng& rng) {
  CHRONOS_EXPECTS(impl_ != nullptr, "calibrate() on an invalid engine");
  const EngineOptions& options = impl_->options;
  const core::SweepSource& source = *impl_->source;
  if (!source.has_geometry()) {
    return {StatusCode::kUnavailable,
            "backend '" + source.backend_name() +
                "' carries no device descriptions; install a recorded table "
                "via set_calibration()"};
  }
  const auto resolved = source.resolve({{tx, 0}, {rx, 0}});
  if (!resolved.ok()) return resolved.status();
  CHRONOS_EXPECTS(options.calibration_sweeps >= 1,
                  "need at least one calibration sweep");

  // Calibration fixture: same radios, anechoic environment, known distance,
  // swept with the backend's own simulator model on its band plan. This is
  // the paper's a-priori bench calibration, not a field measurement, so it
  // runs on a local simulator whatever the measurement backend is. Trace
  // deployments with a recorded calibration install it via
  // set_calibration() instead.
  sim::Device tx_fix = resolved.value().tx;
  sim::Device rx_fix = resolved.value().rx;
  tx_fix.antennas = {{0.0, 0.0}};
  rx_fix.antennas = {{kCalibrationDistanceM, 0.0}};

  sim::LinkSimConfig fixture_cfg = source.calibration_model();
  fixture_cfg.bands = source.bands();
  sim::LinkSimulator fixture(sim::anechoic(), fixture_cfg);
  std::vector<phy::SweepMeasurement> sweeps;
  sweeps.reserve(static_cast<std::size_t>(options.calibration_sweeps));
  for (int i = 0; i < options.calibration_sweeps; ++i) {
    sweeps.push_back(fixture.simulate_sweep(tx_fix, 0, rx_fix, 0, rng));
  }
  return set_calibration(core::calibrate_from_sweeps(
      sweeps, kCalibrationDistanceM, options.ranging.combining));
}

Status Engine::set_calibration(core::CalibrationTable calibration) {
  CHRONOS_EXPECTS(impl_ != nullptr, "set_calibration() on an invalid engine");
  const std::size_t bands = impl_->source->bands().size();
  if (!calibration.empty() && calibration.correction.size() != bands) {
    return {StatusCode::kBandMismatch,
            "calibration table has " +
                std::to_string(calibration.correction.size()) +
                " corrections; this engine's plan has " +
                std::to_string(bands) + " bands"};
  }
  impl_->calibration =
      std::make_shared<const core::CalibrationTable>(std::move(calibration));
  return Status::Ok();
}

const core::CalibrationTable& Engine::calibration() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "calibration() on an invalid engine");
  return *impl_->calibration;
}

// ----------------------------------------------------------------- ranging

Result<core::RangingResult> Engine::measure(const RangingRequest& request,
                                            mathx::Rng& rng) const {
  auto sweep = capture_sweep(request, rng);
  if (!sweep.ok()) return sweep.status();
  auto result = impl_->pipeline->estimate(sweep.value(), *impl_->calibration);
  // Detection-gate rejections surface as the call's status (single-request
  // callers have no per-slot status to consult).
  if (!result.status.ok()) return result.status;
  return result;
}

Result<phy::SweepMeasurement> Engine::capture_sweep(
    const RangingRequest& request, mathx::Rng& rng) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "capture_sweep() on an invalid engine");
  auto resolved = impl_->source->resolve(request);
  if (!resolved.ok()) return resolved.status();
  return impl_->source->sweep_for(resolved.value(), rng);
}

Result<core::RangingResult> Engine::estimate(
    const phy::SweepMeasurement& sweep) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "estimate() on an invalid engine");
  // Structural damage first, then a recoverable plan mismatch (the sweep
  // was recorded under a different band plan — rebuild the pipeline for
  // it), before handing the sweep to the pipeline.
  if (Status shape = phy::check_sweep(sweep); !shape.ok()) return shape;
  if (Status plan = phy::check_plan(sweep, impl_->source->bands());
      !plan.ok()) {
    return plan;
  }
  try {
    auto result = impl_->pipeline->estimate(sweep, *impl_->calibration);
    if (!result.status.ok()) return result.status;
    return result;
  } catch (const std::invalid_argument& e) {
    return Status{StatusCode::kMalformedSweep, e.what()};
  }
}

// -------------------------------------------------------- batches, sessions

BatchResult Engine::measure_batch(std::span<const RangingRequest> requests,
                                  mathx::Rng& rng,
                                  const BatchOptions& options) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "measure_batch() on an invalid engine");
  // Wall-clock diagnostic (wall_time_s); results are a pure function of
  // the session streams. lint:allow(nondeterminism)
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = requests.size();
  const int threads = batch_threads(options, n);
  auto pool = threads > 1 ? impl_->session_pool(threads) : nullptr;
  BatchResult out;
  out.threads_used = pool ? static_cast<int>(std::min(
                                pool->size(), std::max<std::size_t>(1, n)))
                          : 1;

  // A batch is a session with no admission bound: request i takes ticket
  // i and stream i, as one job when it resolves, via push_failed when not.
  auto session = impl_->open(std::move(pool), rng,
                             std::numeric_limits<std::size_t>::max(),
                             options.retry);
  for (const auto& request : requests) {
    if (auto ticket = session.try_submit(request); !ticket.ok()) {
      (void)session.push_failed(ticket.status());
    }
  }
  out.results = session.drain();
  // Diagnostic only; see above. lint:allow(nondeterminism)
  out.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

RangingSession Engine::open_session(mathx::Rng& rng,
                                    const SessionOptions& options) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "open_session() on an invalid engine");
  CHRONOS_EXPECTS(options.threads >= 0, "session threads must be >= 0");
  const int threads =
      options.threads == 0
          ? static_cast<int>(core::WorkerPool::default_thread_count())
          : options.threads;
  return impl_->open(impl_->session_pool(threads), rng, options.queue_depth,
                     options.retry);
}

// ------------------------------------------------------------ localization

Result<LocateOutcome> Engine::locate(NodeId tx, NodeId rx, mathx::Rng& rng,
                                     const std::optional<geom::Vec2>& hint,
                                     const BatchOptions& options) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "locate() on an invalid engine");
  const core::SweepSource& source = *impl_->source;
  if (!source.has_geometry()) {
    return Status{StatusCode::kUnavailable,
                  "backend '" + source.backend_name() +
                      "' carries no antenna geometry; localization needs it"};
  }
  const auto resolved = source.resolve({{tx, 0}, {rx, 0}});
  if (!resolved.ok()) return resolved.status();
  const auto& tx_antennas = resolved.value().tx.antennas;
  const auto& rx_antennas = resolved.value().rx.antennas;
  if (rx_antennas.size() < 2) {
    return Status{StatusCode::kInvalidArgument,
                  "localization needs a receiver with >= 2 antennas"};
  }

  // Every (tx antenna, rx antenna) pair, tx-major, through one batch.
  std::vector<RangingRequest> pairs;
  pairs.reserve(tx_antennas.size() * rx_antennas.size());
  for (std::size_t ta = 0; ta < tx_antennas.size(); ++ta) {
    for (std::size_t ra = 0; ra < rx_antennas.size(); ++ra) {
      pairs.push_back({{tx, ta}, {rx, ra}});
    }
  }
  LocateOutcome out;
  out.details = measure_batch(pairs, rng, options).results;

  // Pairwise distances between every transmit and receive antenna enter
  // one joint optimisation (paper §8).
  std::vector<geom::Vec2> anchors;
  std::vector<double> distances;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    anchors.push_back(rx_antennas[pairs[k].rx.antenna]);
    distances.push_back(out.details[k].distance_m);
    if (pairs[k].tx.antenna == 0) {
      out.antenna_distances_m.push_back(out.details[k].distance_m);
    }
  }

  // Joint fit: solves for the TX device position against all ranges at
  // once. TX antennas are approximated by the device center (<= half the
  // antenna span of model error), which is repaid many times over: the
  // joint residual picks the correct mirror side by majority and averages
  // per-link multipath bias, which decorrelates across antennas.
  out.result = core::localize(anchors, distances, hint);
  return out;
}

std::vector<LocateOutcome> Engine::locate_batch(
    std::span<const LocateRequest> requests, mathx::Rng& rng,
    const BatchOptions& options) const {
  CHRONOS_EXPECTS(impl_ != nullptr, "locate_batch() on an invalid engine");
  const mathx::Rng base = rng.fork(kLocateStreamTag);
  const int threads = batch_threads(options, requests.size());

  // One job per localization; each job ranges its pairs inline
  // (BatchOptions{1}) so the pool is never nested. Job i draws from
  // base.split(i), making the output a pure function of (engine, requests,
  // rng state). A request that fails to resolve yields an outcome carrying
  // the status (its split stream goes unused — neighbours are unaffected).
  auto process = [&](std::size_t i) {
    mathx::Rng child = base.split(i);
    auto out = locate(requests[i].tx, requests[i].rx, child, requests[i].hint,
                      BatchOptions{1});
    if (out.ok()) return std::move(out).value();
    LocateOutcome failed;
    failed.status = out.status();
    return failed;
  };
  if (threads <= 1) {
    std::vector<LocateOutcome> out;
    out.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) out.push_back(process(i));
    return out;
  }
  return core::parallel_map_on(*impl_->session_pool(threads), requests.size(),
                               process);
}

// ------------------------------------------------------------- diagnostics

std::string Engine::backend_name() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "backend_name() on an invalid engine");
  return impl_->source->backend_name();
}

std::size_t Engine::session_threads() const {
  CHRONOS_EXPECTS(impl_ != nullptr, "session_threads() on an invalid engine");
  MutexLock lock(impl_->pool_mutex);
  return impl_->pool ? impl_->pool->size() : 0;
}

}  // namespace chronos
