// CSI trace serialization.
//
// Sweeps can be saved to and loaded from a line-oriented text format, which
// serves two purposes: (a) benches and examples can snapshot interesting
// workloads, and (b) traces captured from *real* hardware (e.g. the Linux
// 802.11n CSI Tool the paper builds on) can be converted to this format and
// fed through the identical pipeline — the estimation code cannot tell the
// difference.
//
// Format (one record per line, '#' comments ignored):
//   sweep <band_count> <sweep_duration_s>
//   band <index> <channel>
//   capture <band_index> <direction:f|r> <timestamp_s> <snr_db>
//           <re0> <im0> ... <re29> <im29>      (one physical line)
// Captures appear forward/reverse alternating, in band order.
#pragma once

#include <iosfwd>
#include <string>

#include "mathx/status.hpp"
#include "phy/csi.hpp"

namespace chronos::phy {

/// Writes a sweep to a stream. Throws std::invalid_argument on malformed
/// input sweeps (validated first).
void write_sweep(std::ostream& os, const SweepMeasurement& sweep);

/// Reads a sweep written by write_sweep — the Status-based parser for
/// untrusted input (API v2). Never throws for bad input:
///   * kBandMismatch    a band record names a channel outside the US band
///                      plan (e.g. a converter with a wrong frequency map);
///   * kMalformedSweep  every other structural violation — parse errors,
///                      truncated forward/reverse exchanges, non-finite
///                      values, wrong subcarrier counts, trailing garbage.
[[nodiscard]] chronos::Result<SweepMeasurement> try_read_sweep(
    std::istream& is);

/// Convenience file wrappers. try_load_sweep adds kMalformedSweep for an
/// unopenable file; save_sweep throws std::invalid_argument when the file
/// cannot be written.
[[nodiscard]] chronos::Result<SweepMeasurement> try_load_sweep(
    const std::string& path);
void save_sweep(const std::string& path, const SweepMeasurement& sweep);

}  // namespace chronos::phy
