#include "phy/csi_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <utility>

#include "mathx/contracts.hpp"
#include "phy/band_plan.hpp"

namespace chronos::phy {

namespace {
// Hard cap on the declared band count: the US plan has 35 bands, so any
// header beyond this is garbage (and, unchecked, a resize() driven by
// attacker-controlled input). Part of the parser-robustness contract —
// try_read_sweep must reject malformed input with a Status, never crash,
// hang, or allocate unboundedly (tests/test_phy_csi_io_robustness).
constexpr std::size_t kMaxBands = 256;
}  // namespace

void write_sweep(std::ostream& os, const SweepMeasurement& sweep) {
  const chronos::Status shape = check_sweep(sweep);
  CHRONOS_EXPECTS(shape.ok(), shape.message());
  CHRONOS_EXPECTS(std::isfinite(sweep.sweep_duration_s) &&
                      sweep.sweep_duration_s > 0.0,
                  "sweep duration must be finite and positive");
  // A band is written as its channel number and read back as the plan's
  // band of that number, so only plan bands survive the round trip.
  for (const auto& captures : sweep.bands) {
    const WifiBand& band = captures.front().forward.band;
    CHRONOS_EXPECTS(band == band_by_channel(band.channel),
                    "band " + std::to_string(band.channel) +
                        " is not the band plan's band of that channel");
  }
  os << "# chronos CSI sweep v1\n";
  os << "sweep " << sweep.bands.size() << ' '
     << std::setprecision(17) << sweep.sweep_duration_s << '\n';
  for (std::size_t bi = 0; bi < sweep.bands.size(); ++bi) {
    os << "band " << bi << ' '
       << sweep.bands[bi].front().forward.band.channel << '\n';
  }
  auto write_capture = [&os](std::size_t bi, char direction,
                             const CsiMeasurement& m) {
    os << "capture " << bi << ' ' << direction << ' '
       << std::setprecision(17) << m.timestamp_s << ' ' << m.snr_db;
    for (const auto& v : m.values) {
      os << ' ' << v.real() << ' ' << v.imag();
    }
    os << '\n';
  };
  for (std::size_t bi = 0; bi < sweep.bands.size(); ++bi) {
    for (const auto& cap : sweep.bands[bi]) {
      write_capture(bi, 'f', cap.forward);
      write_capture(bi, 'r', cap.reverse);
    }
  }
}

namespace {

/// Shorthand for the parser's rejection statuses.
[[nodiscard]] chronos::Status malformed(const std::string& message) {
  return {chronos::StatusCode::kMalformedSweep, message};
}

}  // namespace

[[nodiscard]] chronos::Result<SweepMeasurement> try_read_sweep(
    std::istream& is) {
  SweepMeasurement sweep;
  // Each declared band takes exactly one band record, before any capture
  // of that band. A band left without one can then hold no captures, which
  // check_sweep rejects at end of stream.
  std::vector<std::optional<WifiBand>> bands;
  std::string line;
  bool have_header = false;

  // Forward measurements wait here until their reverse partner arrives.
  std::vector<std::optional<CsiMeasurement>> pending_forward;

  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;

    if (tag == "sweep") {
      if (have_header) return malformed("duplicate sweep header");
      std::size_t n = 0;
      ls >> n >> sweep.sweep_duration_s;
      if (ls.fail() || n == 0) return malformed("bad sweep header");
      if (n > kMaxBands) {
        return malformed("sweep header declares too many bands");
      }
      if (!std::isfinite(sweep.sweep_duration_s) ||
          sweep.sweep_duration_s <= 0.0) {
        return malformed("sweep duration must be finite and positive");
      }
      std::string extra;
      if (ls >> extra) return malformed("trailing garbage in sweep header");
      sweep.bands.resize(n);
      bands.resize(n);
      pending_forward.resize(n);
      have_header = true;
    } else if (tag == "band") {
      if (!have_header) return malformed("band record before sweep header");
      std::size_t idx = 0;
      int channel = 0;
      ls >> idx >> channel;
      if (ls.fail() || idx >= bands.size()) {
        return malformed("bad band record");
      }
      std::string extra;
      if (ls >> extra) return malformed("trailing garbage in band record");
      if (bands[idx]) {
        return malformed("second band record for band " + std::to_string(idx));
      }
      // A channel outside the plan is a *band mismatch*, not mere garbage:
      // it is the signature of a converter whose frequency map disagrees
      // with the US band plan the pipeline was built for.
      const auto& plan = us_band_plan();
      const auto it =
          std::find_if(plan.begin(), plan.end(), [channel](const WifiBand& b) {
            return b.channel == channel;
          });
      if (it == plan.end()) {
        return chronos::Status{
            chronos::StatusCode::kBandMismatch,
            "band record names channel " + std::to_string(channel) +
                ", which is not in the band plan"};
      }
      bands[idx] = *it;
    } else if (tag == "capture") {
      if (!have_header) return malformed("capture record before sweep header");
      std::size_t bi = 0;
      char dir = 'f';
      CsiMeasurement m;
      ls >> bi >> dir >> m.timestamp_s >> m.snr_db;
      if (ls.fail() || bi >= bands.size()) {
        return malformed("bad capture record");
      }
      if (dir != 'f' && dir != 'r') {
        return malformed("capture direction must be 'f' or 'r'");
      }
      if (!std::isfinite(m.timestamp_s) || !std::isfinite(m.snr_db)) {
        return malformed("capture timestamp/SNR must be finite");
      }
      if (!bands[bi]) {
        return malformed("capture of band " + std::to_string(bi) +
                         " before its band record");
      }
      m.band = *bands[bi];
      std::size_t n_values = 0;
      double re = 0.0, im = 0.0;
      while (ls >> re) {
        if ((ls >> im).fail()) {
          return malformed("capture has an odd or malformed CSI component");
        }
        if (!std::isfinite(re) || !std::isfinite(im)) {
          return malformed("CSI values must be finite");
        }
        if (n_values == m.values.size()) {
          return malformed("capture carries more than 30 subcarrier values");
        }
        m.values[n_values++] = {re, im};
      }
      // The loop must have stopped at end-of-line, not on a token that
      // failed to parse as a number (trailing garbage).
      if (!ls.eof()) return malformed("trailing garbage in capture record");
      if (n_values != m.values.size()) {
        return malformed("capture must carry 30 subcarrier values");
      }

      if (dir == 'f') {
        if (pending_forward[bi]) {
          return malformed(
              "two forward captures without a reverse between them");
        }
        pending_forward[bi] = std::move(m);
      } else {
        if (!pending_forward[bi]) {
          return malformed(
              "truncated exchange: reverse capture without a forward "
              "partner");
        }
        sweep.bands[bi].push_back({*pending_forward[bi], m});
        pending_forward[bi].reset();
      }
    } else {
      return malformed("unknown record tag in CSI trace");
    }
  }
  if (!have_header) return malformed("stream contains no sweep header");
  for (const auto& pending : pending_forward) {
    if (pending) {
      return malformed(
          "truncated exchange: forward capture without a reverse partner at "
          "end of stream");
    }
  }
  if (chronos::Status shape = check_sweep(sweep); !shape.ok()) return shape;
  return sweep;
}

void save_sweep(const std::string& path, const SweepMeasurement& sweep) {
  std::ofstream os(path);
  CHRONOS_EXPECTS(os.good(), "cannot open file for writing: " + path);
  write_sweep(os, sweep);
  CHRONOS_EXPECTS(os.good(), "write failed: " + path);
}

[[nodiscard]] chronos::Result<SweepMeasurement> try_load_sweep(
    const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    return chronos::Status{chronos::StatusCode::kMalformedSweep,
                           "cannot open file for reading: " + path};
  }
  return try_read_sweep(is);
}

}  // namespace chronos::phy
