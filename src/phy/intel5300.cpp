#include "phy/intel5300.hpp"

namespace chronos::phy {

int per_direction_exponent(const WifiBand& band) {
  return band.is_2_4ghz() ? 4 : 1;
}

}  // namespace chronos::phy
