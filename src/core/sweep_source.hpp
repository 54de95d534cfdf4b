// The measurement substrate behind the ranging runtime.
//
// The estimation pipeline only ever consumes phy::SweepMeasurement; where a
// sweep comes from — a channel simulator standing in for two Intel 5300
// cards, a recorded trace captured with the Linux 802.11n CSI Tool, or some
// future live-capture transport — is a backend detail. `SweepSource` is that
// seam: a const-thread-safe interface that (a) implements the public
// chronos::NodeRegistry directory, (b) resolves id-based public requests
// into backend-internal ResolvedRequests, and (c) yields the calibrated
// per-band sweep for one resolved request, with all randomness drawn from
// the caller's rng so the ranging session's determinism contract
// (core/session.hpp) holds for every backend.
//
// Error model (API v2): request-shaped failures — unknown node, antenna out
// of range, unrecorded trace link, band mismatch — are reported as
// chronos::Status / Result values, never exceptions. Exceptions from a
// backend indicate programmer error.
//
// Two concrete backends ship here:
//   * SimSweepSource    wraps sim::LinkSimulator and a writable node
//                       directory — bit-identical sweeps to calling the
//                       simulator directly (the pre-seam behavior);
//   * TraceSweepSource  replays recorded phy::csi_io sweeps keyed by
//                       (tx node, tx antenna, rx node, rx antenna); its
//                       directory is derived from the recorded keys.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "mathx/annotations.hpp"
#include "mathx/rng.hpp"
#include "mathx/status.hpp"
#include "phy/csi.hpp"
#include "sim/link.hpp"

namespace chronos::core {

/// A public id-based RangingRequest after backend resolution: full device
/// descriptions plus antenna selection — everything a backend needs to
/// produce the sweep. For the simulator this carries the registered
/// device; trace backends synthesize a minimal description (identity +
/// antenna arity) because replay needs no geometry or radio personality.
///
/// This is the engine-internal unit of work (PR <= 4 exposed it as the
/// public `core::RangingRequest`); new code submits chronos::RangingRequest
/// ids and lets the backend resolve them.
struct ResolvedRequest {
  sim::Device tx;
  std::size_t tx_antenna = 0;
  sim::Device rx;
  std::size_t rx_antenna = 0;
};

/// Backend interface: node directory + request resolution + sweep
/// production.
///
/// Contract (what ranging sessions and chronos::Engine rely on):
///   * `sweep_for` / `resolve` and every NodeRegistry query are safe to
///     call concurrently on one const instance — implementations hold no
///     hidden mutable state and draw randomness exclusively from the
///     caller-supplied `rng`. A directory that may change while ranging
///     (SimSweepSource::add_node) locks itself internally; backends whose
///     population is not thread-safe (TraceSweepSource's try_add_sweep*)
///     must finish population before concurrent ranging starts;
///   * a sweep is a pure function of (source, resolved request, rng
///     state), so worker scheduling can never change a bit of any
///     RangingResult;
///   * `bands()` lists the bands every produced sweep covers, in sweep
///     order — exactly what RangingPipeline construction needs.
class SweepSource : public chronos::NodeRegistry {
 public:
  /// Resolves a public id-based request against this backend's directory:
  /// kUnknownNode / kAntennaOutOfRange / kUnknownLink on failure.
  [[nodiscard]] virtual chronos::Result<ResolvedRequest> resolve(
      const chronos::RangingRequest& request) const = 0;

  /// The calibrated per-band sweep for `req`, or the Status explaining why
  /// this backend cannot serve it. Implementations MUST validate `req`
  /// and report unserveable requests as a Status — never crash or read
  /// out of bounds: resolved requests can also be built by hand, without
  /// passing through resolve().
  [[nodiscard]] virtual chronos::Result<phy::SweepMeasurement> sweep_for(
      const ResolvedRequest& req, mathx::Rng& rng) const = 0;

  /// Bands every sweep from this source covers, in sweep order.
  virtual const std::vector<phy::WifiBand>& bands() const = 0;

  /// True when resolved requests carry real antenna geometry (needed by
  /// localization); false for backends that only know identities.
  virtual bool has_geometry() const = 0;

  /// Stable human-readable backend identifier ("sim", "trace", ...), for
  /// diagnostics and logs.
  virtual std::string backend_name() const = 0;

  /// Simulator model of the calibration fixture: Engine::calibrate sweeps
  /// the pair in an anechoic fixture with this model, on this source's
  /// bands(), because the paper calibrates once with the same radios that
  /// later range. A simulator backend returns its own model and a
  /// decorator forwards its inner source's; other backends keep this
  /// default, the simulator's stock model.
  virtual sim::LinkSimConfig calibration_model() const { return {}; }
};

/// The simulator backend: forwards every resolved request to
/// sim::LinkSimulator::simulate_sweep (bit-identical to the pre-seam
/// engine path — the fig7a/8b/8c goldens pin this) and keeps a writable
/// node directory mapping NodeId -> sim::Device. Ids are decoupled from
/// the device's radio personality (`hardware_seed`): many nodes may share
/// one personality, e.g. one physical card swept over many positions.
class SimSweepSource final : public SweepSource {
 public:
  SimSweepSource(sim::Environment env, sim::LinkSimConfig config);
  explicit SimSweepSource(sim::LinkSimulator link);

  /// Registers (or replaces) `device` under `id`. Thread-safe.
  void add_node(chronos::NodeId id, sim::Device device);
  /// Shorthand: id = device.hardware_seed.
  void add_node(sim::Device device);

  // NodeRegistry
  bool has_node(chronos::NodeId id) const override;
  [[nodiscard]] chronos::Result<std::size_t> antenna_count(chronos::NodeId id)
      const override;
  std::vector<chronos::NodeId> nodes() const override;

  // SweepSource
  [[nodiscard]] chronos::Result<ResolvedRequest> resolve(
      const chronos::RangingRequest& request) const override;
  [[nodiscard]] chronos::Result<phy::SweepMeasurement> sweep_for(
      const ResolvedRequest& req, mathx::Rng& rng) const override;
  const std::vector<phy::WifiBand>& bands() const override;
  bool has_geometry() const override { return true; }
  std::string backend_name() const override { return "sim"; }
  sim::LinkSimConfig calibration_model() const override {
    return link_.config();
  }

  /// The wrapped simulator (simulator-specific extras: ground-truth paths,
  /// environment access).
  const sim::LinkSimulator& link() const { return link_; }

 private:
  sim::LinkSimulator link_;
  mutable chronos::Mutex nodes_mutex_;
  /// The writable node directory: add_node may run while other threads
  /// range, hence the only guarded state.
  std::map<chronos::NodeId, sim::Device> nodes_
      CHRONOS_GUARDED_BY(nodes_mutex_);
};

/// Identity of one recorded antenna-pair link. Nodes are identified by
/// their public NodeId value — for captures made with simulated devices
/// this is conventionally the `hardware_seed`, the same stable id that
/// gives a simulated device its chain personality.
struct TraceKey {
  std::uint64_t tx_device = 0;
  std::size_t tx_antenna = 0;
  std::uint64_t rx_device = 0;
  std::size_t rx_antenna = 0;

  friend auto operator<=>(const TraceKey&, const TraceKey&) = default;

  /// The key a resolved request resolves to.
  static TraceKey of(const ResolvedRequest& req);
  /// The key a public id-based request resolves to.
  static TraceKey of(const chronos::RangingRequest& req);
};

/// Replay backend: serves recorded sweeps (phy::csi_io format) instead of
/// simulating. Populate it with `try_add_sweep` / `try_add_sweep_file`,
/// then range through the identical pipeline — the estimator cannot tell a
/// replayed trace from a live simulation. The node directory is derived
/// from the recorded keys (antenna count = highest recorded antenna + 1).
///
/// Band structure is established by the first recorded sweep and enforced
/// on every later one (all sweeps of a deployment share the band plan).
/// When several sweeps are recorded under one key (repeated measurements of
/// the same link), `sweep_for` picks one uniformly from the caller's rng —
/// still a pure function of (source, request, rng state), so the
/// determinism contract survives replay with repetition.
class TraceSweepSource final : public SweepSource {
 public:
  TraceSweepSource() = default;

  /// Records `sweep` under `key`: kMalformedSweep when phy::check_sweep
  /// rejects it (so nothing is recorded that every later range would
  /// reject), kBandMismatch when phy::check_plan finds its bands disagree
  /// with the bands established by the first recorded sweep.
  [[nodiscard]] chronos::Status try_add_sweep(const TraceKey& key,
                                phy::SweepMeasurement sweep);

  /// Loads a phy::csi_io trace file and records it under `key` (adds file
  /// open/parse failures to the try_add_sweep statuses).
  [[nodiscard]] chronos::Status try_add_sweep_file(const TraceKey& key,
                                     const std::string& path);

  // NodeRegistry
  bool has_node(chronos::NodeId id) const override;
  [[nodiscard]] chronos::Result<std::size_t> antenna_count(chronos::NodeId id)
      const override;
  std::vector<chronos::NodeId> nodes() const override;

  // SweepSource
  [[nodiscard]] chronos::Result<ResolvedRequest> resolve(
      const chronos::RangingRequest& request) const override;
  [[nodiscard]] chronos::Result<phy::SweepMeasurement> sweep_for(
      const ResolvedRequest& req, mathx::Rng& rng) const override;
  const std::vector<phy::WifiBand>& bands() const override;
  bool has_geometry() const override { return false; }
  std::string backend_name() const override { return "trace"; }

  /// Recorded links / total recorded sweeps (diagnostics).
  std::size_t key_count() const { return sweeps_.size(); }
  std::size_t sweep_count() const;

 private:
  std::map<TraceKey, std::vector<phy::SweepMeasurement>> sweeps_;
  /// NodeId value -> antenna arity (1 + highest recorded antenna index).
  std::map<std::uint64_t, std::size_t> node_arity_;
  std::vector<phy::WifiBand> bands_;
};

}  // namespace chronos::core
