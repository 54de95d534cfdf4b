#include "phy/detection.hpp"

#include <cmath>

#include "mathx/constants.hpp"
#include "mathx/contracts.hpp"

namespace chronos::phy {

namespace {
constexpr double kSamplePeriodS = 50e-9;  // 20 MHz baseband
/// Energy-accumulation constant: crossing takes threshold/snr_linear
/// sample periods at 20 MHz (50 ns each).
constexpr double kThresholdSnrSamples = 60.0;
/// Rayleigh-distributed jitter scale from noise riding on the energy
/// detector and AGC gain steps.
constexpr double kJitterSigmaS = 20e-9;

double snr_linear(double snr_db) { return std::pow(10.0, snr_db / 10.0); }

// Rayleigh sample via inverse CDF from a uniform draw.
double rayleigh(double sigma, mathx::Rng& rng) {
  const double u = rng.uniform(1e-12, 1.0);
  return sigma * std::sqrt(-2.0 * std::log(u));
}
}  // namespace

double expected_detection_delay_s(double snr_db) {
  const double crossing =
      kSamplePeriodS * kThresholdSnrSamples / snr_linear(snr_db);
  // Mean of Rayleigh(sigma) is sigma*sqrt(pi/2).
  const double jitter_mean = kJitterSigmaS * std::sqrt(mathx::kPi / 2.0);
  return kDetectionPipelineDelayS + crossing + jitter_mean;
}

double sample_detection_delay_s(double snr_db, mathx::Rng& rng) {
  CHRONOS_EXPECTS(snr_db > -20.0 && snr_db < 80.0,
                  "snr outside plausible range");
  const double crossing =
      kSamplePeriodS * kThresholdSnrSamples / snr_linear(snr_db);
  const double jitter = rayleigh(kJitterSigmaS, rng);
  return kDetectionPipelineDelayS + crossing + jitter;
}

}  // namespace chronos::phy
