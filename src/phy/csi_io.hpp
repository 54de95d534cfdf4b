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
// The sweep header comes first. Every band index takes exactly one band
// record, before any capture of that band. A band's captures alternate
// forward, reverse; write_sweep writes them in band order.
#pragma once

#include <iosfwd>
#include <string>

#include "mathx/status.hpp"
#include "phy/csi.hpp"

namespace chronos::phy {

/// Writes a sweep to a stream. Throws std::invalid_argument for a sweep
/// that try_read_sweep would reject or read back differently: one that
/// check_sweep rejects, one whose sweep_duration_s is not finite and
/// positive, or one with a band that is not the plan's band of its channel
/// (band_by_channel; the format records only the channel number).
void write_sweep(std::ostream& os, const SweepMeasurement& sweep);

/// Reads a sweep written by write_sweep — the Status-based parser for
/// untrusted input (API v2). Never throws for bad input:
///   * kBandMismatch    a band record names a channel outside the US band
///                      plan (e.g. a converter with a wrong frequency map);
///   * kMalformedSweep  a record that does not parse (bad numbers,
///                      non-finite values, a wrong subcarrier count,
///                      trailing garbage), a missing, repeated or late band
///                      record, a truncated forward/reverse exchange, or a
///                      sweep that check_sweep rejects.
[[nodiscard]] chronos::Result<SweepMeasurement> try_read_sweep(
    std::istream& is);

/// Convenience file wrappers. try_load_sweep adds kMalformedSweep for an
/// unopenable file; save_sweep throws std::invalid_argument when the file
/// cannot be written.
[[nodiscard]] chronos::Result<SweepMeasurement> try_load_sweep(
    const std::string& path);
void save_sweep(const std::string& path, const SweepMeasurement& sweep);

}  // namespace chronos::phy
