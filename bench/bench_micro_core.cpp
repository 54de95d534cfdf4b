// Microbenchmarks of the computational kernels: the cost of one ranging
// call is dominated by the sparse NDFT inversion, so these track the pieces
// that matter for real-time operation (the paper's 12 sweeps/second budget
// leaves ~80 ms per estimate).
//
// Two modes:
//  * default — a self-contained chrono harness that times every kernel in
//    five equal batches and emits one machine-readable
//    `SUMMARY {"figure":"micro_core",...}` line (ns/op per kernel, the
//    median batch's). This needs no external dependency, runs in seconds,
//    and is registered with CTest under the `perf` label so the numbers are
//    exercised on every verify run; bench/BENCH_ndft.json records the
//    per-PR trajectory. Before the table it prints the kernel variant the
//    process runs, one `SOLVE_DIGEST <hex>` line over the office solves
//    (fista_solve_office), which two builds with bit-identical solves
//    share, one `OFFICE_GAP` line: the iterations those solves take to
//    their duality-gap stop (mean, p90 and max), how often their
//    backtracking step halved (mean per solve) and the largest relative
//    gap they stop at, and one `SWEEP_DIGEST <hex>` line over the office
//    sweeps those solves start from (sim_sweep_office), which two builds
//    with bit-identical synthesis share. It exits 1 if any office solve
//    ends without its certificate (converged = false), so the CTest case
//    catches a solver that diverges, which would otherwise show only as
//    slowness.
//  * --gbench — delegates to google-benchmark (when the build found it) for
//    full statistical output; remaining argv is forwarded, so the usual
//    --benchmark_* flags work.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/api.hpp"
#include "core/combining.hpp"
#include "core/ndft.hpp"
#include "core/ndft_kernels.hpp"
#include "core/ranging.hpp"
#include "core/subcarrier_interp.hpp"
#include "core/sweep_source.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "mathx/stats.hpp"
#include "phy/band_plan.hpp"
#include "phy/csi.hpp"
#include "sim/link.hpp"
#include "sim/radio.hpp"
#include "sim/scenario.hpp"

#if CHRONOS_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace chronos;

std::vector<double> plan_freqs() {
  std::vector<double> f;
  for (const auto& b : phy::us_band_plan()) f.push_back(b.center_freq_hz);
  return f;
}

std::vector<std::complex<double>> test_channel() {
  const auto freqs = plan_freqs();
  std::vector<std::complex<double>> h(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    h[i] = std::polar(1.0, -mathx::kTwoPi * freqs[i] * 15e-9) +
           0.4 * std::polar(1.0, -mathx::kTwoPi * freqs[i] * 28e-9);
  }
  return h;
}

/// A panel of distinct two-path channels for the multi-RHS workloads (one
/// direct path sweeping 12-26 ns, shared 28 ns reflection).
std::vector<std::vector<std::complex<double>>> batch_channels(
    std::size_t k_count) {
  const auto freqs = plan_freqs();
  std::vector<std::vector<std::complex<double>>> hs(k_count);
  for (std::size_t k = 0; k < k_count; ++k) {
    const double tau = 12e-9 + 2e-9 * static_cast<double>(k);
    hs[k].resize(freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      hs[k][i] = std::polar(1.0, -mathx::kTwoPi * freqs[i] * tau) +
                 0.4 * std::polar(1.0, -mathx::kTwoPi * freqs[i] * 28e-9);
    }
  }
  return hs;
}

constexpr core::DelayGrid kGrid{0.0, 150e-9, 0.125e-9};

/// Seed of the office links' placements and calibration; link i captures
/// its sweep from Rng(kOfficeSeed).split(i).
constexpr std::uint64_t kOfficeSeed = 20;

/// 48 office_range links (sim::office_testbed pairs 1-15 m apart,
/// single-antenna mobiles), each swept once through an engine calibrated
/// with Engine::calibrate. `hs` holds the production solve's inputs: each
/// sweep combined and weighted the way rangebench's probe prepares a sweep
/// for the solver.
struct OfficeLinks {
  std::shared_ptr<const core::SimSweepSource> source;
  std::vector<core::ResolvedRequest> requests;
  std::vector<phy::SweepMeasurement> sweeps;
  core::NdftSolver solver;
  std::vector<std::vector<std::complex<double>>> hs;
  /// What combined `sweeps` into `hs`: the pipeline's combining settings
  /// and the engine's calibration.
  core::CombiningConfig combining;
  core::CalibrationTable calibration;
};

const OfficeLinks& office_links() {
  static const OfficeLinks set = [] {
    constexpr std::size_t kLinks = 48;
    constexpr std::uint64_t kTxPersonality = 11;
    constexpr std::uint64_t kRxPersonality = 22;
    const NodeId cal_tx{1};
    const NodeId cal_rx{2};
    const sim::Scenario scenario = sim::office_testbed();
    auto source = std::make_shared<core::SimSweepSource>(
        scenario.environment(), sim::LinkSimConfig{});
    source->add_node(cal_tx, sim::make_mobile({0.0, 0.0}, kTxPersonality));
    source->add_node(cal_rx, sim::make_mobile({1.0, 0.0}, kRxPersonality));
    mathx::Rng rng(kOfficeSeed);
    std::vector<RangingRequest> links;
    for (std::uint64_t i = 0; i < kLinks; ++i) {
      const sim::Placement pl = scenario.sample_pair(rng, 1.0, 15.0);
      const NodeId tx{100 + i};
      const NodeId rx{200 + i};
      source->add_node(tx, sim::make_mobile(pl.tx, kTxPersonality));
      source->add_node(rx, sim::make_mobile(pl.rx, kRxPersonality));
      links.push_back({{tx, 0}, {rx, 0}});
    }
    Engine engine = Engine::adopt(source);
    if (const Status status = engine.calibrate(cal_tx, cal_rx, rng);
        !status.ok()) {
      std::fprintf(stderr, "office calibration failed: %s\n",
                   status.to_string().c_str());
      std::exit(1);
    }
    const core::RangingPipeline pipeline(source->bands(),
                                         EngineOptions{}.ranging);
    OfficeLinks out{source, {}, {}, pipeline.solver(), {},
                    pipeline.config().combining, engine.calibration()};
    for (std::size_t i = 0; i < links.size(); ++i) {
      mathx::Rng link_rng = rng.split(i);
      auto sweep = engine.capture_sweep(links[i], link_rng);
      if (!sweep.ok()) {
        std::fprintf(stderr, "office capture failed: %s\n",
                     sweep.status().to_string().c_str());
        std::exit(1);
      }
      std::vector<std::complex<double>> raw;
      for (const auto& band :
           core::combine_sweep(sweep.value(), out.combining, out.calibration)) {
        raw.push_back(band.value);
      }
      out.hs.push_back(pipeline.solver().apply_weights(raw));
      out.requests.push_back(source->resolve(links[i]).value());
      out.sweeps.push_back(std::move(sweep).value());
    }
    return out;
  }();
  return set;
}

/// Folds `size` bytes into an FNV-1a digest: equal digests mean
/// bit-identical inputs.
constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
void fnv1a(std::uint64_t& digest, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    digest ^= bytes[i];
    digest *= 0x100000001b3ULL;
  }
}

/// One pass over the office solves: a digest of their iterations,
/// convergence flags, coefficient bytes and residual norms, their
/// iterations-to-gap and step halvings, and how many did not converge.
struct OfficeSolveSummary {
  std::uint64_t digest = kFnvOffsetBasis;
  double iterations_mean = 0.0;
  double iterations_p90 = 0.0;
  int iterations_max = 0;
  double halvings_mean = 0.0;
  double max_relative_gap = 0.0;
  std::size_t unconverged = 0;
};

OfficeSolveSummary summarize_office_solves() {
  OfficeSolveSummary out;
  const OfficeLinks& set = office_links();
  std::vector<double> iterations;
  std::vector<double> halvings;
  for (const auto& h : set.hs) {
    const core::SparseSolveResult r =
        set.solver.solve_fista(h, core::RangingConfig::solver_options);
    const unsigned char converged = r.converged ? 1 : 0;
    fnv1a(out.digest, &r.iterations, sizeof r.iterations);
    fnv1a(out.digest, &converged, sizeof converged);
    fnv1a(out.digest, r.coefficients.data(),
          r.coefficients.size() * sizeof(r.coefficients[0]));
    fnv1a(out.digest, &r.residual_norm, sizeof r.residual_norm);
    iterations.push_back(r.iterations);
    halvings.push_back(r.step_halvings);
    out.iterations_max = std::max(out.iterations_max, r.iterations);
    out.max_relative_gap = std::max(out.max_relative_gap, r.relative_gap);
    out.unconverged += r.converged ? 0 : 1;
  }
  out.iterations_mean = mathx::mean(iterations);
  out.iterations_p90 = mathx::percentile(iterations, 90.0);
  out.halvings_mean = mathx::mean(halvings);
  return out;
}

/// A digest of the office sweeps' CSI, timestamp and SNR bits.
std::uint64_t office_sweep_digest() {
  std::uint64_t digest = kFnvOffsetBasis;
  for (const auto& sweep : office_links().sweeps) {
    for (const auto& captures : sweep.bands) {
      for (const auto& cap : captures) {
        for (const phy::CsiMeasurement* m : {&cap.forward, &cap.reverse}) {
          fnv1a(digest, m->values.data(), sizeof m->values);
          fnv1a(digest, &m->timestamp_s, sizeof m->timestamp_s);
          fnv1a(digest, &m->snr_db, sizeof m->snr_db);
        }
      }
    }
  }
  return digest;
}

/// One timed workload: `fn` performs one op and returns a value the harness
/// sinks so the work cannot be optimised away. `ops_per_call` divides the
/// measured time so multi-RHS workloads report per-RHS cost.
struct MicroKernel {
  const char* bm_name;    ///< google-benchmark name (BM_*)
  const char* json_key;   ///< SUMMARY metric name (<key>_ns)
  std::function<double()> fn;
  double ops_per_call = 1.0;
};

const std::vector<MicroKernel>& kernels() {
  static const std::vector<MicroKernel> all = [] {
    std::vector<MicroKernel> ks;
    const auto freqs = plan_freqs();
    const auto h = test_channel();

    // Plan build: matrix recurrence into both layouts + the power
    // iteration on the kernels (what every NdftSolver construction pays).
    ks.push_back({"BM_NdftPlanBuild", "ndft_plan_build", [freqs] {
                    const core::NdftPlan plan(freqs, kGrid, {});
                    return plan.gamma();
                  }});

    auto solver = std::make_shared<core::NdftSolver>(freqs, kGrid);
    ks.push_back({"BM_FistaSolve", "fista_solve", [solver, h] {
                    return solver->solve_fista(h).residual_norm;
                  }});
    ks.push_back({"BM_IstaSolve", "ista_solve", [solver, h] {
                    return solver->solve_ista(h).residual_norm;
                  }});
    // The production solve: what Engine::measure spends on FISTA for one
    // office link, reported per solve over the 48-link set.
    const OfficeLinks* office = &office_links();
    ks.push_back({"BM_FistaSolveOffice", "fista_solve_office", [office] {
                    double acc = 0.0;
                    for (const auto& h_k : office->hs) {
                      acc += office->solver
                                 .solve_fista(
                                     h_k, core::RangingConfig::solver_options)
                                 .residual_norm;
                    }
                    return acc;
                  },
                  static_cast<double>(office->hs.size())});
    // Synthesis: what Engine::measure spends simulating one office sweep,
    // reported per sweep over the same 48 links and capture streams.
    ks.push_back({"BM_SimSweepOffice", "sim_sweep_office", [office] {
                    const mathx::Rng streams(kOfficeSeed);
                    const sim::LinkSimulator& link = office->source->link();
                    double acc = 0.0;
                    for (std::size_t i = 0; i < office->requests.size(); ++i) {
                      const core::ResolvedRequest& r = office->requests[i];
                      mathx::Rng rng = streams.split(i);
                      acc += link.simulate_sweep(r.tx, r.tx_antenna, r.rx,
                                                 r.rx_antenna, rng)
                                 .bands.front().front().forward.values.front()
                                 .real();
                    }
                    return acc;
                  },
                  static_cast<double>(office->requests.size())});

    // solve_fista_batch over 8 distinct channels, reported as ns per RHS.
    // The batch is a loop of solve_fista calls: its comparator is
    // fista_solve, which it matches within noise.
    const auto hs_owned = batch_channels(8);
    ks.push_back({"BM_FistaBatchPerRhs", "fista_batch_per_rhs",
                  [solver, hs_owned] {
                    std::vector<std::span<const std::complex<double>>> hs;
                    hs.reserve(hs_owned.size());
                    for (const auto& h_k : hs_owned) hs.emplace_back(h_k);
                    double acc = 0.0;
                    for (const auto& r : solver->solve_fista_batch(hs)) {
                      acc += r.residual_norm;
                    }
                    return acc;
                  },
                  8.0});
    // The pipeline's hottest matched-filter workload: a 1501-point scan of
    // the 0-60 ns window at the 0.04 ns gate-scan step (pre-PR this was a
    // std::polar per row per point; now one recurrence scan).
    ks.push_back({"BM_MatchedFilterScan", "matched_filter_scan",
                  [solver, h, out = std::vector<double>(1501)]() mutable {
                    solver->matched_filter_scan(h, 0.0, 0.04e-9, out.size(),
                                                out);
                    return out[0] + out[out.size() / 2] + out.back();
                  }});
    ks.push_back({"BM_RefineDelay", "refine_delay", [solver, h] {
                    return solver->refine_delay(h, 15e-9, 0.3e-9);
                  }});

    phy::CsiMeasurement m;
    m.band = phy::band_by_channel(36);
    const auto idx = phy::intel5300_subcarrier_indices();
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const double f =
          m.band.center_freq_hz + phy::subcarrier_offset_hz(idx[k]);
      m.values[k] = std::polar(1.0, -mathx::kTwoPi * f * 20e-9);
    }
    ks.push_back({"BM_SubcarrierInterpolation", "subcarrier_interp", [m] {
                    return core::interpolate_to_center(m)
                        .zero_subcarrier.real();
                  }});
    // Combine: what Engine::measure spends turning one office sweep into
    // its 35 combined bands (210 interpolations, the fwd x rev products
    // and the calibration), per sweep over the same 48 office sweeps.
    ks.push_back({"BM_CombineOffice", "combine_office", [office] {
                    double acc = 0.0;
                    for (const auto& sweep : office->sweeps) {
                      acc += core::combine_sweep(sweep, office->combining,
                                                 office->calibration)
                                 .front()
                                 .value.real();
                    }
                    return acc;
                  },
                  static_cast<double>(office->sweeps.size())});
    return ks;
  }();
  return all;
}

volatile double g_sink = 0.0;

/// Batches timed per kernel; the harness reports the median batch.
constexpr std::size_t kTimedBatches = 5;

/// Times `fn` in kTimedBatches batches of one size, grown adaptively until
/// a batch takes at least min_ms / kTimedBatches of wall time (the batch
/// that reaches it is the first of them); returns the median batch's ns
/// per op.
double measure_ns_per_op(const std::function<double()>& fn, double min_ms) {
  using clock = std::chrono::steady_clock;
  g_sink = g_sink + fn();  // warmup (first-touch, tls workspace)
  const auto time_ms = [&fn](std::size_t batch) {
    const auto t0 = clock::now();
    double acc = 0.0;
    for (std::size_t i = 0; i < batch; ++i) acc += fn();
    g_sink = g_sink + acc;
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };
  const double batch_ms = min_ms / static_cast<double>(kTimedBatches);
  std::size_t batch = 1;
  double ms = time_ms(batch);
  while (ms < batch_ms && batch < (std::size_t{1} << 28)) {
    if (ms <= 0.01) {
      batch *= 16;
    } else {
      batch = static_cast<std::size_t>(static_cast<double>(batch) *
                                       (batch_ms / ms) * 1.2) +
              1;
    }
    ms = time_ms(batch);
  }
  std::vector<double> ns_per_op{ms * 1e6 / static_cast<double>(batch)};
  while (ns_per_op.size() < kTimedBatches) {
    ns_per_op.push_back(time_ms(batch) * 1e6 / static_cast<double>(batch));
  }
  return mathx::median(ns_per_op);
}

int run_chrono_harness() {
  bench::header("micro_core", "NDFT / estimation kernel microbenchmarks");
  double min_ms = 150.0;
  // Single-threaded harness startup; nothing concurrent reads the env.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("CHRONOS_BENCH_MIN_MS")) {
    const double v = std::atof(env);
    if (v > 0.0) min_ms = v;
  }
  std::printf("  kernel variant: %s\n", core::NdftPlan::kernel_variant());
  const OfficeSolveSummary office = summarize_office_solves();
  std::printf("SOLVE_DIGEST %016llx\n",
              static_cast<unsigned long long>(office.digest));
  std::printf("OFFICE_GAP %zu solves: iterations mean %.1f p90 %.1f max %d, "
              "step halvings mean %.2f, max relative gap %.3g\n",
              office_links().hs.size(), office.iterations_mean,
              office.iterations_p90, office.iterations_max,
              office.halvings_mean, office.max_relative_gap);
  std::printf("SWEEP_DIGEST %016llx\n",
              static_cast<unsigned long long>(office_sweep_digest()));
  if (office.unconverged > 0) {
    std::fprintf(stderr,
                 "bench_micro_core: %zu of %zu office solves ended without "
                 "their duality-gap certificate (converged = false)\n",
                 office.unconverged, office_links().hs.size());
    return 1;
  }
  std::printf("  %-28s %14s %12s\n", "kernel", "ns/op", "ms/op");
  std::vector<std::pair<std::string, double>> metrics;
  for (const auto& k : kernels()) {
    const double ns = measure_ns_per_op(k.fn, min_ms) / k.ops_per_call;
    std::printf("  %-28s %14.1f %12.4f\n", k.bm_name, ns, ns * 1e-6);
    metrics.emplace_back(std::string(k.json_key) + "_ns", ns);
  }
  std::printf("  (paper budget: ~80 ms per ToF estimate; see README "
              "\"Performance\")\n");
  bench::json_summary("micro_core", metrics);
  return 0;
}

#if CHRONOS_HAVE_GBENCH
void register_gbench() {
  for (const auto& k : kernels()) {
    benchmark::RegisterBenchmark(k.bm_name, [fn = k.fn](
                                                benchmark::State& state) {
      for (auto _ : state) {
        benchmark::DoNotOptimize(fn());
      }
    })->Unit(benchmark::kMillisecond);
  }
}
#endif

}  // namespace

int main(int argc, char** argv) {
  const bool want_gbench =
      argc > 1 && std::strcmp(argv[1], "--gbench") == 0;
  if (!want_gbench) return run_chrono_harness();
#if CHRONOS_HAVE_GBENCH
  // Forward the remaining argv (e.g. --benchmark_filter) to the library.
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) args.push_back(argv[i]);
  int gargc = static_cast<int>(args.size());
  register_gbench();
  benchmark::Initialize(&gargc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "bench_micro_core: built without google-benchmark; "
               "rerun without --gbench for the chrono harness\n");
  return 2;
#endif
}
