// Parser-robustness table for phy::try_read_sweep: the trace format carries
// untrusted input (converted captures from real hardware), so every
// truncated, corrupted, or overlong stream must come back as an error
// Status — never an exception, a crash, a hang, or an unbounded allocation.
// Precursor to the ROADMAP libFuzzer harness; runs under the ASan/UBSan/TSan
// presets like every other suite.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mathx/rng.hpp"
#include "phy/csi_io.hpp"
#include "sim/environment.hpp"
#include "sim/link.hpp"
#include "sim/radio.hpp"

namespace chronos::phy {
namespace {

/// The CSI part of a capture line: `n_pairs` copies of `pair` (" re im").
std::string capture_values(int n_pairs, const char* pair = " 1.0 0.0") {
  std::string s;
  for (int i = 0; i < n_pairs; ++i) s += pair;
  return s;
}

struct MalformedCase {
  const char* name;
  std::string input;
};

std::vector<MalformedCase> malformed_cases() {
  const std::string vals30 = capture_values(30);
  return {
      {"empty stream", ""},
      {"comments only", "# nothing here\n# still nothing\n"},
      {"truncated header", "sweep\n"},
      {"header missing duration", "sweep 2\n"},
      {"zero bands", "sweep 0 0.084\n"},
      {"negative duration", "sweep 1 -0.5\nband 0 100\n"},
      {"non-finite duration", "sweep 1 inf\nband 0 100\n"},
      {"huge band count", "sweep 18446744073709551615 0.084\n"},
      {"overlong band count", "sweep 4096 0.084\n"},
      {"duplicate header", "sweep 1 0.084\nsweep 1 0.084\n"},
      {"band before header", "band 0 100\n"},
      {"band index out of range", "sweep 1 0.084\nband 7 100\n"},
      {"band unknown channel", "sweep 1 0.084\nband 0 9999\n"},
      {"band non-numeric", "sweep 1 0.084\nband zero 100\n"},
      {"capture before header", "capture 0 f 0.0 20.0" + vals30 + "\n"},
      {"capture band out of range",
       "sweep 1 0.084\nband 0 100\ncapture 3 f 0.0 20.0" + vals30 + "\n"},
      {"capture bad direction",
       "sweep 1 0.084\nband 0 100\ncapture 0 x 0.0 20.0" + vals30 + "\n"},
      {"capture non-finite timestamp",
       "sweep 1 0.084\nband 0 100\ncapture 0 f nan 20.0" + vals30 + "\n"},
      {"capture too few values",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + capture_values(12) +
           "\n"},
      {"capture too many values",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + capture_values(31) +
           "\n"},
      {"capture far too many values",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" +
           capture_values(5000) + "\n"},
      {"capture odd value count",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + capture_values(29) +
           " 1.0\n"},
      {"capture garbage values",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0 1.0 fish" + vals30 +
           "\n"},
      {"reverse without forward",
       "sweep 1 0.084\nband 0 100\ncapture 0 r 0.0 20.0" + vals30 + "\n"},
      {"two forwards in a row",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + vals30 +
           "\ncapture 0 f 0.001 20.0" + vals30 + "\n"},
      {"dangling forward at EOF",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + vals30 +
           "\ncapture 0 r 0.001 20.0" + vals30 + "\ncapture 0 f 0.002 20.0" +
           vals30 + "\n"},
      {"header trailing garbage", "sweep 1 0.084 junk\n"},
      {"band trailing garbage", "sweep 1 0.084\nband 0 100 junk\n"},
      {"capture one extra numeric value",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + vals30 +
           " 3.5\n"},
      {"capture trailing word after full record",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + vals30 +
           " fish\n"},
      {"unknown record tag", "sweep 1 0.084\nfrobnicate 1 2 3\n"},
      {"header only, no captures", "sweep 2 0.084\nband 0 100\nband 1 36\n"},
      {"band record missing",
       "sweep 2 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + vals30 +
           "\ncapture 0 r 0.001 20.0" + vals30 + "\ncapture 1 f 0.002 20.0" +
           vals30 + "\ncapture 1 r 0.003 20.0" + vals30 + "\n"},
      {"band record repeated",
       "sweep 2 0.084\nband 0 100\nband 1 36\nband 1 40\ncapture 0 f 0.0 "
       "20.0" + vals30 + "\ncapture 0 r 0.001 20.0" + vals30 +
           "\ncapture 1 f 0.002 20.0" + vals30 + "\ncapture 1 r 0.003 20.0" +
           vals30 + "\n"},
      {"band record after its captures",
       "sweep 2 0.084\nband 0 100\ncapture 0 f 0.0 20.0" + vals30 +
           "\ncapture 0 r 0.001 20.0" + vals30 + "\ncapture 1 f 0.002 20.0" +
           vals30 + "\ncapture 1 r 0.003 20.0" + vals30 + "\nband 1 36\n"},
      {"all-zero capture",
       "sweep 1 0.084\nband 0 100\ncapture 0 f 0.0 20.0" +
           capture_values(30, " 0 0") + "\ncapture 0 r 0.001 20.0" + vals30 +
           "\n"},
      {"binary garbage", std::string("\x00\x01\xff\xfe\x80 garbage\n", 14)},
  };
}

TEST(CsiIoRobustness, MalformedInputsFailCleanly) {
  for (const auto& c : malformed_cases()) {
    SCOPED_TRACE(c.name);
    std::istringstream is(c.input);
    chronos::Result<SweepMeasurement> result{
        chronos::Status{chronos::StatusCode::kInternal, "unset"}};
    EXPECT_NO_THROW(result = try_read_sweep(is));
    const auto code = result.status().code();
    EXPECT_TRUE(code == chronos::StatusCode::kMalformedSweep ||
                code == chronos::StatusCode::kBandMismatch)
        << result.status().to_string();
  }
}

TEST(CsiIoRobustness, WellFormedTraceStillRoundTrips) {
  // Positive control: the hardening must not reject real traces.
  sim::LinkSimConfig cfg;
  const auto& plan = us_band_plan();
  for (std::size_t i = 0; i < plan.size(); i += 9) cfg.bands.push_back(plan[i]);
  cfg.exchanges_per_band = 2;
  const sim::LinkSimulator link(sim::anechoic(), cfg);
  mathx::Rng rng(17);
  const auto sweep = link.simulate_sweep(sim::make_mobile({0.0, 0.0}, 1), 0,
                                         sim::make_mobile({5.0, 0.0}, 2), 0,
                                         rng);
  std::stringstream ss;
  write_sweep(ss, sweep);
  const auto loaded = try_read_sweep(ss).value();
  ASSERT_EQ(loaded.bands.size(), sweep.bands.size());
  for (std::size_t bi = 0; bi < sweep.bands.size(); ++bi) {
    ASSERT_EQ(loaded.bands[bi].size(), sweep.bands[bi].size());
    for (std::size_t c = 0; c < sweep.bands[bi].size(); ++c) {
      EXPECT_EQ(loaded.bands[bi][c].forward.values,
                sweep.bands[bi][c].forward.values);
      EXPECT_EQ(loaded.bands[bi][c].reverse.values,
                sweep.bands[bi][c].reverse.values);
    }
  }
}

TEST(CsiIoRobustness, LoadSweepMissingFileFailsCleanly) {
  EXPECT_EQ(try_load_sweep("/nonexistent/path/trace.csi").status().code(),
            chronos::StatusCode::kMalformedSweep);
}

}  // namespace
}  // namespace chronos::phy
