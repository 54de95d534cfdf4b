#include "sim/radio.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "mathx/annotations.hpp"
#include "mathx/contracts.hpp"

namespace chronos::sim {

namespace {

using RippleTable = std::array<double, phy::kUsPlanBands>;

/// One deterministic draw per (device, band): a stream keyed by the band
/// index, forked off a fresh generator on the device's hardware seed.
RippleTable derive_ripples(std::uint64_t seed) {
  const mathx::Rng device(seed);
  RippleTable out{};
  for (std::size_t b = 0; b < out.size(); ++b) {
    mathx::Rng fresh = device;  // fork consumes a draw: start anew per band
    out[b] = fresh.fork(b + 1).normal(0.0, kBandRippleStdRad);
  }
  return out;
}

/// Every ripple table a Device has been built with, by seed. Entries are
/// only ever added, and std::map nodes never move, so a Device may keep a
/// pointer to its table for the life of the process.
class RippleTables {
 public:
  const RippleTable& of(std::uint64_t seed) CHRONOS_EXCLUDES(tables_mutex_) {
    chronos::MutexLock lock(tables_mutex_);
    auto it = tables_.find(seed);
    if (it == tables_.end()) {
      it = tables_.emplace(seed, derive_ripples(seed)).first;
    }
    return it->second;
  }

 private:
  chronos::Mutex tables_mutex_;
  std::map<std::uint64_t, RippleTable> tables_
      CHRONOS_GUARDED_BY(tables_mutex_);
};

const RippleTable& ripple_table(std::uint64_t seed) {
  static RippleTables tables;
  return tables.of(seed);
}

}  // namespace

Device::Device() : Device(1) {}

Device::Device(std::uint64_t hardware_seed, std::vector<geom::Vec2> antennas)
    : Device(hardware_seed, std::move(antennas), &ripple_table(hardware_seed)) {
}

Device::Device(std::uint64_t hardware_seed, std::vector<geom::Vec2> antennas,
               const RippleTable* ripple_rad)
    : antennas(std::move(antennas)),
      hardware_seed_(hardware_seed),
      ripple_rad_(ripple_rad) {}

Device Device::identity(std::uint64_t hardware_seed,
                        std::size_t antenna_count) {
  return Device(hardware_seed, std::vector<geom::Vec2>(antenna_count),
                nullptr);
}

double Device::chain_ripple_rad(std::size_t band_index) const {
  CHRONOS_EXPECTS(ripple_rad_ != nullptr,
                  "an identity device has no radio personality");
  CHRONOS_EXPECTS(band_index < ripple_rad_->size(),
                  "chain ripple band index outside the US plan");
  return (*ripple_rad_)[band_index];
}

namespace {
// Three antennas in a shallow triangle: two at the bezel corners plus one
// at the hinge. Collinear anchors cannot disambiguate the mirror solution
// of circle intersection (paper §8 assumes non-collinear antennas), so the
// middle antenna is offset perpendicular to the baseline by 40% of the
// span.
Device make_triangle_array(const geom::Vec2& center, double span_m,
                           std::uint64_t seed) {
  const double half = span_m / 2.0;
  return Device(seed, {{center.x - half, center.y},
                       {center.x + half, center.y},
                       {center.x, center.y - 0.4 * span_m}});
}
}  // namespace

Device make_laptop(const geom::Vec2& center, double antenna_span_m,
                   std::uint64_t hardware_seed) {
  return make_triangle_array(center, antenna_span_m, hardware_seed);
}

Device make_access_point(const geom::Vec2& center, double antenna_span_m,
                         std::uint64_t hardware_seed) {
  return make_triangle_array(center, antenna_span_m, hardware_seed);
}

Device make_mobile(const geom::Vec2& position, std::uint64_t hardware_seed) {
  return Device(hardware_seed, {position});
}

double packet_snr_db(double channel_power_linear) {
  CHRONOS_EXPECTS(channel_power_linear > 0.0,
                  "channel power must be positive");
  // Received power = TX power + channel gain (both in dB domain).
  const double rx_dbm = kTxPowerDbm + 10.0 * std::log10(channel_power_linear);
  return rx_dbm - kNoiseFloorDbm;
}

}  // namespace chronos::sim
