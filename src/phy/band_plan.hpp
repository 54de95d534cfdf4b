// The US Wi-Fi band plan (paper Fig. 2).
//
// Chronos stitches channel measurements across every 20 MHz 802.11n band the
// Intel 5300 can tune to: 11 channels at 2.4 GHz and 24 at 5 GHz (UNII-1/2,
// the 802.11h DFS range, and UNII-3) — 35 bands with distinct center
// frequencies spanning 2.412–5.825 GHz. The wide, unequal spacing is what
// gives the band-stitched "virtual wideband radio" its sub-nanosecond
// resolution and a Chinese-Remainder-style unambiguous range of ~60 m.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace chronos::phy {

/// Regulatory grouping of a 20 MHz Wi-Fi channel.
enum class BandGroup {
  k2_4GHz,     ///< 2.412–2.462 GHz, channels 1–11
  k5GHzUnii1,  ///< 5.18–5.24 GHz, channels 36–48
  k5GHzUnii2,  ///< 5.26–5.32 GHz, channels 52–64
  k5GHzDfs,    ///< 5.50–5.70 GHz, channels 100–140 (802.11h DFS)
  k5GHzUnii3,  ///< 5.745–5.825 GHz, channels 149–165
};

/// One 20 MHz Wi-Fi band.
struct WifiBand {
  int channel = 0;              ///< 802.11 channel number
  double center_freq_hz = 0.0;  ///< center (zero-subcarrier) frequency
  BandGroup group = BandGroup::k2_4GHz;

  bool is_2_4ghz() const { return group == BandGroup::k2_4GHz; }

  /// Channel, center frequency and group alike: the one band comparison.
  friend bool operator==(const WifiBand&, const WifiBand&) = default;
};

/// Number of bands in the US plan.
inline constexpr std::size_t kUsPlanBands = 35;

/// The full 35-band US plan, ordered by center frequency.
const std::vector<WifiBand>& us_band_plan();

/// Subset helpers used by benches and the band-count ablation.
std::vector<WifiBand> bands_2_4ghz();
std::vector<WifiBand> bands_5ghz();

/// Looks up a band by channel number; throws std::invalid_argument for
/// channels outside the US plan.
const WifiBand& band_by_channel(int channel);

/// Human-readable band group label ("2.4 GHz", "5 GHz DFS", ...).
std::string to_string(BandGroup group);

/// Total frequency span covered (max center - min center), the paper's
/// "almost one GHz of bandwidth" combined aperture (3.413 GHz edge-to-edge
/// including the 2.4/5 GHz gap).
double total_span_hz(std::span<const WifiBand> bands);

/// The unambiguous time-of-flight range achieved by stitching the given
/// bands: the least common multiple of the periods 1/f_i, computed on a
/// rational representation of the center frequencies (all US centers are
/// integer multiples of 5 MHz). Returned in seconds.
double unambiguous_range_s(std::span<const WifiBand> bands);

}  // namespace chronos::phy
