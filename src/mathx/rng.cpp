#include "mathx/rng.hpp"

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
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

bool Rng::bernoulli(double p) {
  CHRONOS_EXPECTS(p >= 0.0 && p <= 1.0, "bernoulli: p outside [0,1]");
  std::bernoulli_distribution d(p);
  return d(engine_);
}

std::complex<double> Rng::complex_gaussian(double component_stddev) {
  CHRONOS_EXPECTS(component_stddev >= 0.0, "complex_gaussian: negative stddev");
  if (component_stddev == 0.0) return {0.0, 0.0};
  std::normal_distribution<double> d(0.0, component_stddev);
  return {d(engine_), d(engine_)};
}

double Rng::uniform_phase() { return uniform(0.0, kTwoPi); }

}  // namespace chronos::mathx
