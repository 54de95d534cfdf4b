// A test is not a consumer: this include keeps baseline/dead.hpp an orphan.
#include "baseline/dead.hpp"

int main() { return chronos::baseline::dead_estimate(1.0) == 2.0 ? 0 : 1; }
