#include "mathx/cvec.hpp"

#include <algorithm>
#include <cmath>

namespace chronos::mathx {

std::vector<double> angles(std::span<const cplx> v) {
  std::vector<double> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](const cplx& z) { return std::arg(z); });
  return out;
}

std::vector<double> magnitudes(std::span<const cplx> v) {
  std::vector<double> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](const cplx& z) { return std::abs(z); });
  return out;
}

double norm2_sq(std::span<const cplx> v) {
  double acc = 0.0;
  for (const cplx& z : v) acc += std::norm(z);
  return acc;
}

double norm2(std::span<const cplx> v) { return std::sqrt(norm2_sq(v)); }

}  // namespace chronos::mathx
