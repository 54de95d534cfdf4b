#include "core/live.hpp"

namespace chronos::core {
int live() { return 1; }
}  // namespace chronos::core
