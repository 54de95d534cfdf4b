// Negative fixture for scripts/lint/check_orphan_headers.py: the control
// case. bench/bench_live.cpp includes this header, so it is not an orphan.
#pragma once

namespace chronos::core {
int live();
}  // namespace chronos::core
