// Fuzz harness for phy::try_read_sweep — the parser that sits on the repo's
// only untrusted input boundary (CSI trace files, ultimately produced by
// external capture tooling).
//
// Contract under fuzzing: for ANY byte sequence, try_read_sweep returns a
// SweepMeasurement or a non-ok chronos::Status whose code is
// kMalformedSweep or kBandMismatch — it never throws. Every sweep it
// accepts passes phy::check_sweep and survives write_sweep then
// try_read_sweep unchanged: the same bands, captures, timestamps, SNRs,
// CSI bit patterns and duration. Crashes, hangs, unbounded allocation,
// sanitizer reports, any exception out of try_read_sweep or write_sweep,
// any other error code, or a sweep that does not round-trip are findings.
//
// Two build flavors (tests/fuzz/CMakeLists.txt picks automatically):
//   * libFuzzer (Clang): coverage-guided, LLVMFuzzerTestOneInput only;
//   * standalone (CHRONOS_FUZZ_STANDALONE, any compiler): a main() that
//     replays every corpus file and then a bounded number of deterministic
//     mutants of each, so the harness still exercises the parser under
//     gcc + ASan/UBSan where libFuzzer is unavailable.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "phy/csi_io.hpp"

namespace {

using chronos::phy::CsiMeasurement;
using chronos::phy::SweepMeasurement;

/// Bitwise equality of doubles: -0.0 and 0.0 differ, a NaN equals itself.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_capture(const CsiMeasurement& a, const CsiMeasurement& b) {
  return a.band == b.band && same_bits(a.timestamp_s, b.timestamp_s) &&
         same_bits(a.snr_db, b.snr_db) &&
         std::memcmp(a.values.data(), b.values.data(), sizeof a.values) == 0;
}

bool same_sweep(const SweepMeasurement& a, const SweepMeasurement& b) {
  if (!same_bits(a.sweep_duration_s, b.sweep_duration_s) ||
      a.bands.size() != b.bands.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.bands.size(); ++i) {
    if (a.bands[i].size() != b.bands[i].size()) return false;
    for (std::size_t c = 0; c < a.bands[i].size(); ++c) {
      if (!same_capture(a.bands[i][c].forward, b.bands[i][c].forward) ||
          !same_capture(a.bands[i][c].reverse, b.bands[i][c].reverse)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  // Must never throw (an escaping exception aborts the harness — that is
  // the point).
  std::istringstream is(text);
  const auto result = chronos::phy::try_read_sweep(is);

  // A rejection names one of the parser's two codes, never anything else.
  const auto code = result.status().code();
  if (!result.ok()) {
    if (code != chronos::StatusCode::kMalformedSweep &&
        code != chronos::StatusCode::kBandMismatch) {
      std::abort();
    }
    return 0;
  }

  // An accepted sweep is well-formed and reads back as itself.
  if (!chronos::phy::check_sweep(result.value()).ok()) std::abort();
  std::stringstream written;
  chronos::phy::write_sweep(written, result.value());
  const auto reread = chronos::phy::try_read_sweep(written);
  if (!reread.ok() || !same_sweep(result.value(), reread.value())) {
    std::abort();
  }
  return 0;
}

#ifdef CHRONOS_FUZZ_STANDALONE

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

namespace {

/// splitmix64: the same cheap deterministic mixer mathx::Rng uses for
/// stream derivation — good enough to drive byte mutations reproducibly.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void run_input(const std::string& bytes) {
  (void)LLVMFuzzerTestOneInput(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
}

/// Replays `seed` plus `mutants` deterministic single-edit mutations of it:
/// byte flips, truncations, duplications, and digit swaps — the classic
/// text-format parser stressors.
void fuzz_one_seed(const std::string& seed, int mutants,
                   std::uint64_t rng_state) {
  run_input(seed);
  for (int m = 0; m < mutants; ++m) {
    std::string mutated = seed;
    switch (mix(rng_state) % 4) {
      case 0: {  // flip a byte
        if (mutated.empty()) break;
        const std::size_t at = mix(rng_state) % mutated.size();
        mutated[at] = static_cast<char>(mix(rng_state) & 0xFF);
        break;
      }
      case 1: {  // truncate
        mutated.resize(mutated.empty() ? 0 : mix(rng_state) % mutated.size());
        break;
      }
      case 2: {  // duplicate a slice (repeated records / partial lines)
        if (mutated.empty()) break;
        const std::size_t from = mix(rng_state) % mutated.size();
        const std::size_t len =
            1 + mix(rng_state) % (mutated.size() - from);
        mutated += mutated.substr(from, len);
        break;
      }
      default: {  // perturb a digit (magnitude / sign / index torture)
        for (auto& c : mutated) {
          if (c >= '0' && c <= '9' && mix(rng_state) % 8 == 0) {
            c = static_cast<char>('0' + (mix(rng_state) % 10));
          }
        }
        break;
      }
    }
    run_input(mutated);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Mutants per corpus file; CHRONOS_FUZZ_MUTANTS overrides (the CTest
  // fuzz-smoke step keeps the default so sanitizer runs stay quick).
  int mutants = 256;
  // Single-threaded driver startup; nothing concurrent reads the env.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("CHRONOS_FUZZ_MUTANTS")) {
    mutants = std::atoi(env);
  }

  std::vector<std::filesystem::path> inputs;
  for (int a = 1; a < argc; ++a) {
    const std::filesystem::path p(argv[a]);
    if (std::filesystem::is_directory(p)) {
      for (const auto& entry : std::filesystem::directory_iterator(p)) {
        if (entry.is_regular_file()) inputs.push_back(entry.path());
      }
    } else if (std::filesystem::is_regular_file(p)) {
      inputs.push_back(p);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: fuzz_read_sweep <corpus dir or files>...\n");
    return 2;
  }

  std::uint64_t executions = 0;
  for (const auto& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    fuzz_one_seed(buf.str(), mutants, 0xC510F00Dull ^ executions);
    executions += static_cast<std::uint64_t>(mutants) + 1;
  }
  std::printf("fuzz_read_sweep: %llu inputs executed over %zu seeds, "
              "no contract violation\n",
              static_cast<unsigned long long>(executions), inputs.size());
  return 0;
}

#endif  // CHRONOS_FUZZ_STANDALONE
