#include "baseline/dead.hpp"

namespace chronos::baseline {
double dead_estimate(double x) { return 2.0 * x; }
}  // namespace chronos::baseline
