// Helpers for vectors of complex samples: the lingua franca between the PHY
// simulator (which produces CSI) and the core estimation algorithms.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace chronos::mathx {

using cplx = std::complex<double>;
using cvec = std::vector<cplx>;

/// Squared L2 norm: sum of |v_i|^2.
double norm2_sq(std::span<const cplx> v);

/// L2 norm.
double norm2(std::span<const cplx> v);

}  // namespace chronos::mathx
