#include "phy/band_plan.hpp"

#include <numeric>

#include "mathx/contracts.hpp"

namespace chronos::phy {

namespace {

std::vector<WifiBand> build_plan() {
  std::vector<WifiBand> plan;
  // 2.4 GHz: channels 1..11, centers 2412 + 5*(ch-1) MHz.
  for (int ch = 1; ch <= 11; ++ch) {
    plan.push_back({ch, (2412.0 + 5.0 * (ch - 1)) * 1e6, BandGroup::k2_4GHz});
  }
  // 5 GHz: center = 5000 + 5*ch MHz.
  auto add5 = [&plan](int ch, BandGroup g) {
    plan.push_back({ch, (5000.0 + 5.0 * ch) * 1e6, g});
  };
  for (int ch = 36; ch <= 48; ch += 4) add5(ch, BandGroup::k5GHzUnii1);
  for (int ch = 52; ch <= 64; ch += 4) add5(ch, BandGroup::k5GHzUnii2);
  for (int ch = 100; ch <= 140; ch += 4) add5(ch, BandGroup::k5GHzDfs);
  for (int ch = 149; ch <= 165; ch += 4) add5(ch, BandGroup::k5GHzUnii3);
  CHRONOS_ENSURES(plan.size() == kUsPlanBands, "US plan band count");
  return plan;
}

}  // namespace

const std::vector<WifiBand>& us_band_plan() {
  static const std::vector<WifiBand> plan = build_plan();
  return plan;
}

std::vector<WifiBand> bands_2_4ghz() {
  std::vector<WifiBand> out;
  for (const auto& b : us_band_plan())
    if (b.is_2_4ghz()) out.push_back(b);
  return out;
}

std::vector<WifiBand> bands_5ghz() {
  std::vector<WifiBand> out;
  for (const auto& b : us_band_plan())
    if (!b.is_2_4ghz()) out.push_back(b);
  return out;
}

const WifiBand& band_by_channel(int channel) {
  for (const auto& b : us_band_plan())
    if (b.channel == channel) return b;
  CHRONOS_EXPECTS(false, "channel not in the US band plan");
  // Unreachable; CHRONOS_EXPECTS throws.
  return us_band_plan().front();
}

std::string to_string(BandGroup group) {
  switch (group) {
    case BandGroup::k2_4GHz:
      return "2.4 GHz";
    case BandGroup::k5GHzUnii1:
      return "5 GHz UNII-1";
    case BandGroup::k5GHzUnii2:
      return "5 GHz UNII-2";
    case BandGroup::k5GHzDfs:
      return "5 GHz DFS";
    case BandGroup::k5GHzUnii3:
      return "5 GHz UNII-3";
  }
  return "unknown";
}

double total_span_hz(std::span<const WifiBand> bands) {
  CHRONOS_EXPECTS(!bands.empty(), "band list is empty");
  double lo = bands.front().center_freq_hz;
  double hi = lo;
  for (const auto& b : bands) {
    lo = std::min(lo, b.center_freq_hz);
    hi = std::max(hi, b.center_freq_hz);
  }
  return hi - lo;
}

double unambiguous_range_s(std::span<const WifiBand> bands) {
  CHRONOS_EXPECTS(!bands.empty(), "band list is empty");
  // All US center frequencies are integer multiples of 1 MHz: f_i = 1e6 * k_i.
  // The periods are 1/f_i = 1/(1e6 * k_i); their least common multiple is
  // lcm(1/k_i) / 1e6 = (1 / gcd(k_i)) / 1e6. For the 2.4 GHz channels
  // (2412, 2417, ... MHz) the gcd is 1 MHz, giving a 1 us ambiguity — even
  // larger than the ~200 ns the paper quotes for its 5 MHz approximation.
  long long g = 0;
  for (const auto& b : bands) {
    const auto k = static_cast<long long>(b.center_freq_hz / 1e6 + 0.5);
    g = std::gcd(g, k);
  }
  CHRONOS_ENSURES(g > 0, "gcd of band multiples must be positive");
  return 1.0 / (1e6 * static_cast<double>(g));
}

}  // namespace chronos::phy
