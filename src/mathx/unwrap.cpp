#include "mathx/unwrap.hpp"

#include <cmath>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"

namespace chronos::mathx {

void unwrap(std::span<const double> phases, std::span<double> out,
            double tolerance) {
  CHRONOS_EXPECTS(tolerance > 0.0, "unwrap tolerance must be positive");
  CHRONOS_EXPECTS(out.size() == phases.size(), "unwrap: out size mismatch");
  if (phases.empty()) return;
  out[0] = phases[0];
  double offset = 0.0;
  for (std::size_t i = 1; i < phases.size(); ++i) {
    const double delta = phases[i] - phases[i - 1];
    if (delta > tolerance) {
      offset -= kTwoPi * std::ceil((delta - tolerance) / kTwoPi);
    } else if (delta < -tolerance) {
      offset += kTwoPi * std::ceil((-delta - tolerance) / kTwoPi);
    }
    out[i] = phases[i] + offset;
  }
}

double wrap_to_pi(double phase) {
  double wrapped = std::fmod(phase + kPi, kTwoPi);
  if (wrapped < 0.0) wrapped += kTwoPi;
  return wrapped - kPi;
}

double wrap_to_period(double value, double period) {
  CHRONOS_EXPECTS(period > 0.0, "period must be positive");
  double wrapped = std::fmod(value, period);
  if (wrapped < 0.0) wrapped += period;
  return wrapped;
}

}  // namespace chronos::mathx
