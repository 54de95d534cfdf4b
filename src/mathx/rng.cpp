#include "mathx/rng.hpp"

#include <algorithm>
#include <cmath>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"

namespace chronos::mathx {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The Gaussian draws below reproduce libstdc++'s std::normal_distribution
// <double> on std::mt19937_64 operation for operation, so they keep its
// bits without building a distribution per draw: generate_canonical takes
// one 64-bit draw and divides by 2^64, clamping a result that rounds to 1,
// and the polar method rejects points outside the unit disc and at its
// centre. tests/test_mathx_rng.cpp checks them against the library.

/// One uniform on [0, 1): libstdc++'s generate_canonical<double, 53>.
double canonical(std::mt19937_64& engine) {
  const double u = static_cast<double>(engine()) / 0x1p64;
  return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
}

/// An accepted point (x, y) of the polar method and its squared radius.
struct PolarPoint {
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
};

PolarPoint polar_point(std::mt19937_64& engine) {
  for (;;) {
    const double x = 2.0 * canonical(engine) - 1.0;
    const double y = 2.0 * canonical(engine) - 1.0;
    const double r2 = x * x + y * y;
    if (!(r2 > 1.0 || r2 == 0.0)) return {x, y, r2};
  }
}

/// The polar method's scale sqrt(-2 ln r2 / r2), given ln r2.
double polar_scale(double r2, double log_r2) {
  return std::sqrt(-2.0 * log_r2 / r2);
}
}  // namespace

Rng Rng::fork(std::uint64_t tag) {
  const std::uint64_t base = engine_();
  return Rng(splitmix64(base ^ splitmix64(tag)));
}

Rng Rng::split(std::uint64_t stream_id) const {
  // Two rounds of splitmix over (seed, stream_id). The extra constant keeps
  // split(0) distinct from the parent's own stream and from fork() children.
  const std::uint64_t base = splitmix64(seed_ ^ 0xC2B2AE3D27D4EB4Full);
  return Rng(splitmix64(base ^ splitmix64(stream_id)));
}

double Rng::uniform(double lo, double hi) {
  CHRONOS_EXPECTS(hi >= lo, "uniform: hi < lo");
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

int Rng::uniform_int(int lo, int hi) {
  CHRONOS_EXPECTS(hi >= lo, "uniform_int: hi < lo");
  std::uniform_int_distribution<int> d(lo, hi);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  CHRONOS_EXPECTS(stddev >= 0.0, "normal: negative stddev");
  if (stddev == 0.0) return mean;
  const PolarPoint pt = polar_point(engine_);
  return pt.y * polar_scale(pt.r2, std::log(pt.r2)) * stddev + mean;
}

bool Rng::bernoulli(double p) {
  CHRONOS_EXPECTS(p >= 0.0 && p <= 1.0, "bernoulli: p outside [0,1]");
  std::bernoulli_distribution d(p);
  return d(engine_);
}

std::complex<double> Rng::complex_gaussian(double component_stddev) {
  std::complex<double> z;
  complex_gaussians(component_stddev, {&z, 1});
  return z;
}

void Rng::complex_gaussians(double component_stddev,
                            std::span<std::complex<double>> out) {
  CHRONOS_EXPECTS(component_stddev >= 0.0, "complex_gaussian: negative stddev");
  if (component_stddev == 0.0) {
    std::fill(out.begin(), out.end(), std::complex<double>{0.0, 0.0});
    return;
  }
  constexpr std::size_t kBlock = 64;
  PolarPoint pts[kBlock];
  double logs[kBlock] = {};
  for (std::size_t lo = 0; lo < out.size(); lo += kBlock) {
    const std::size_t len = std::min(kBlock, out.size() - lo);
    for (std::size_t j = 0; j < len; ++j) pts[j] = polar_point(engine_);
    for (std::size_t j = 0; j < len; ++j) logs[j] = std::log(pts[j].r2);
    // The distribution returns y's value first and x's (saved) second.
    for (std::size_t j = 0; j < len; ++j) {
      const double scale = polar_scale(pts[j].r2, logs[j]);
      out[lo + j] = {pts[j].y * scale * component_stddev + 0.0,
                     pts[j].x * scale * component_stddev + 0.0};
    }
  }
}

double Rng::uniform_phase() { return uniform(0.0, kTwoPi); }

}  // namespace chronos::mathx
