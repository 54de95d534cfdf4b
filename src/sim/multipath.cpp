#include "sim/multipath.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "mathx/contracts.hpp"

namespace chronos::sim {

namespace {
/// Reference gain at 1 m: the free-space term lambda/(4*pi*d) evaluated at
/// the band-plan midpoint.
constexpr double kReferenceGainAt1m = 0.006;  // ~ lambda/(4 pi) at 4 GHz
/// Indoor power path-loss exponent; amplitude falls as d^(-exponent/2).
/// 2 = free space; ~3 matches cluttered office floors and reproduces the
/// paper's SNR-driven error growth with distance (Fig 8a).
constexpr double kPathLossExponent = 3.0;
/// Paths weaker than this fraction of the strongest path's power are
/// dropped (they are unresolvable and only slow the simulator).
constexpr double kRelativePowerFloor = 1e-4;
/// Global scale on scatterer echo amplitudes (calibrates the evaluation's
/// error floor).
constexpr double kScattererGain = 0.07;
}  // namespace

std::vector<PathComponent> compute_paths(
    const Environment& env, const geom::Vec2& tx, const geom::Vec2& rx,
    const PropagationModelParams& params) {
  CHRONOS_EXPECTS(geom::distance(tx, rx) > 1e-6,
                  "tx and rx must not coincide");

  const auto geo_paths = geom::enumerate_paths(
      tx, rx, env.walls, env.blockers, env.max_reflection_order);

  std::vector<PathComponent> paths;
  paths.reserve(geo_paths.size());
  for (const auto& gp : geo_paths) {
    PathComponent pc;
    pc.delay_s = gp.length / mathx::kSpeedOfLight;
    pc.bounces = gp.bounces;
    const double mag =
        kReferenceGainAt1m /
        std::pow(std::max(gp.length, 0.1), kPathLossExponent / 2.0) *
        std::sqrt(gp.reflection_loss);
    // Each specular bounce flips the field sign (grazing reflection off a
    // denser medium).
    const double sign = (gp.bounces % 2 == 1) ? -1.0 : 1.0;
    pc.gain = {sign * mag, 0.0};
    paths.push_back(pc);
  }

  // Diffuse furniture echoes: each environment scatterer adds a two-leg
  // path tx -> s -> rx. Delay and amplitude follow from the geometry, so
  // the echo field varies continuously with antenna position — antennas a
  // few tens of cm apart see almost the same echoes (common-mode errors),
  // which is what small-baseline trilateration depends on.
  if (params.include_scatterers) {
    for (const auto& s : env.scatterers) {
      const double d1 = geom::distance(tx, s.position);
      const double d2 = geom::distance(s.position, rx);
      if (d1 < 0.3 || d2 < 0.3) continue;  // device on top of furniture
      PathComponent pc;
      pc.delay_s = (d1 + d2) / mathx::kSpeedOfLight;
      const double atten =
          kReferenceGainAt1m * s.cross_section * kScattererGain /
          std::pow(d1 * d2, kPathLossExponent / 4.0);
      // Blockers attenuate each leg like any other path.
      double blocked = 1.0;
      for (const auto& blk : env.blockers) {
        if (geom::segment_intersection(tx, s.position, blk))
          blocked *= blk.reflectivity;
        if (geom::segment_intersection(s.position, rx, blk))
          blocked *= blk.reflectivity;
      }
      pc.gain = std::polar(atten * std::sqrt(blocked), s.phase_rad);
      pc.bounces = 1;
      paths.push_back(pc);
    }
    std::sort(paths.begin(), paths.end(),
              [](const PathComponent& a, const PathComponent& b) {
                return a.delay_s < b.delay_s;
              });
  }

  // Drop unresolvably weak paths.
  double peak_power = 0.0;
  for (const auto& p : paths) peak_power = std::max(peak_power, std::norm(p.gain));
  const double floor = peak_power * kRelativePowerFloor;
  std::erase_if(paths,
                [floor](const PathComponent& p) { return std::norm(p.gain) < floor; });

  std::sort(paths.begin(), paths.end(),
            [](const PathComponent& a, const PathComponent& b) {
              return a.delay_s < b.delay_s;
            });
  CHRONOS_ENSURES(!paths.empty(), "path enumeration produced nothing");
  return paths;
}

std::complex<double> channel_at(std::span<const PathComponent> paths,
                                double freq_hz) {
  std::complex<double> h{0.0, 0.0};
  for (const auto& p : paths) {
    h += p.gain * std::polar(1.0, -mathx::kTwoPi * freq_hz * p.delay_s);
  }
  return h;
}

double total_power(std::span<const PathComponent> paths) {
  double acc = 0.0;
  for (const auto& p : paths) acc += std::norm(p.gain);
  return acc;
}

}  // namespace chronos::sim
