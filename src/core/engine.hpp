// Engine-level construction of chronos::Engine.
//
// chronos::Engine (core/api.hpp) is the one engine type. Its simulator-free
// EngineOptions cannot carry the calibration fixture's simulator model
// (sim::LinkSimConfig: sweep plan, noise and impairment settings), so code
// that composes its own backends and tunes that model builds engines here,
// through core::EngineConfig.
#pragma once

#include <memory>

#include "core/api.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "sim/link.hpp"

namespace chronos::core {

struct EngineConfig {
  /// Simulator model of the calibration fixture: calibrate() sweeps an
  /// anechoic fixture with these settings (its bands replaced by the
  /// backend's). The measurement backend itself is whatever source the
  /// engine was built on.
  sim::LinkSimConfig link;
  RangingConfig ranging;
  /// Sweeps averaged during calibration.
  int calibration_sweeps = 4;
  /// Known separation used for the calibration fixture [m].
  double calibration_distance_m = 3.0;
};

/// The engine-level construction entry point: an engine ranging whatever
/// sweeps `source` yields (a SimSweepSource, a TraceSweepSource replaying
/// recorded captures, a fault injector, ...). The pipeline's band plan
/// comes from source->bands(). Pair with set_calibration() when the backend
/// has a recorded calibration.
chronos::Engine make_engine(std::shared_ptr<SweepSource> source,
                            EngineConfig config = {});

}  // namespace chronos::core
