#include "sim/radio.hpp"

#include <cmath>

#include "mathx/contracts.hpp"

namespace chronos::sim {

double Device::chain_ripple_rad(std::size_t band_index) const {
  // One deterministic draw per (device, band): fork a stream keyed by the
  // band index off the device's hardware seed.
  mathx::Rng rng(hardware_seed);
  mathx::Rng band_stream = rng.fork(band_index + 1);
  return band_stream.normal(0.0, kBandRippleStdRad);
}

namespace {
// Three antennas in a shallow triangle: two at the bezel corners plus one
// at the hinge. Collinear anchors cannot disambiguate the mirror solution
// of circle intersection (paper §8 assumes non-collinear antennas), so the
// middle antenna is offset perpendicular to the baseline by 40% of the
// span.
Device make_triangle_array(const geom::Vec2& center, double span_m,
                           std::uint64_t seed) {
  Device d;
  d.hardware_seed = seed;
  const double half = span_m / 2.0;
  d.antennas.push_back({center.x - half, center.y});
  d.antennas.push_back({center.x + half, center.y});
  d.antennas.push_back({center.x, center.y - 0.4 * span_m});
  return d;
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
  Device d;
  d.hardware_seed = hardware_seed;
  d.antennas.push_back(position);
  return d;
}

double packet_snr_db(double channel_power_linear) {
  CHRONOS_EXPECTS(channel_power_linear > 0.0,
                  "channel power must be positive");
  // Received power = TX power + channel gain (both in dB domain).
  const double rx_dbm = kTxPowerDbm + 10.0 * std::log10(channel_power_linear);
  return rx_dbm - kNoiseFloorDbm;
}

}  // namespace chronos::sim
