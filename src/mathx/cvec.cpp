#include "mathx/cvec.hpp"

#include <cmath>

namespace chronos::mathx {

double norm2_sq(std::span<const cplx> v) {
  double acc = 0.0;
  for (const cplx& z : v) acc += std::norm(z);
  return acc;
}

double norm2(std::span<const cplx> v) { return std::sqrt(norm2_sq(v)); }

}  // namespace chronos::mathx
