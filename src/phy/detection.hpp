// Analytic packet-detection-delay model (paper §5, §12.1, Fig 7c).
//
// A Wi-Fi receiver declares a packet present only after the preamble's
// energy crosses a threshold in baseband. The resulting delay is (a) two
// orders of magnitude larger than indoor time-of-flight (median 177 ns vs.
// ~20 ns), (b) SNR-dependent, and (c) noisy across packets (sigma ~25 ns).
// The model here decomposes the delay into a fixed pipeline latency, an
// energy-accumulation term inversely proportional to SNR, and AGC/noise
// jitter; its constants (phy/detection.cpp) are calibrated so the simulated
// population matches the paper's reported median and spread. The simulator
// draws from it and the ranging pipeline compensates with its mean.
#pragma once

#include "mathx/rng.hpp"

namespace chronos::phy {

/// Fixed baseband pipeline latency (filters, AGC settle, correlator lag):
/// the floor under every detection delay.
inline constexpr double kDetectionPipelineDelayS = 120e-9;

/// Samples the detection delay of one packet received at the given SNR.
double sample_detection_delay_s(double snr_db, mathx::Rng& rng);

/// The deterministic (mean) part of the delay at a given SNR; the ranging
/// pipeline uses it to compensate the SNR difference between calibration
/// and field, and tests to separate systematic from random components.
double expected_detection_delay_s(double snr_db);

}  // namespace chronos::phy
