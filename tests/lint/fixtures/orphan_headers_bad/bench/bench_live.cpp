// Consumer of core/live.hpp. The include of baseline/dead.hpp below is
// commented out, so it must not count as a consumer either.
#include "core/live.hpp"
// #include "baseline/dead.hpp"

int main() { return chronos::core::live() == 1 ? 0 : 1; }
