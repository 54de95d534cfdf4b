// Negative fixture for scripts/lint/check_orphan_headers.py: a baseline
// that only its own .cpp and a test include, so no bench, example or
// runtime path ever runs it. lint_orphan_headers_fixture is WILL_FAIL on
// this header.
#pragma once

namespace chronos::baseline {
double dead_estimate(double x);
}  // namespace chronos::baseline
