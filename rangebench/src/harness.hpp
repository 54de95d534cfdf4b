// Shared machinery of the ranging benchmark: clocks, statistics, the span
// recorder of the traced run, the timing SweepSource decorator, the caller
// thread team, and the report every workload fills in.
//
// The benchmark is only a caller of the sim, core and netd layers: every
// span here wraps a public call made from this directory's code.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "mathx/rng.hpp"
#include "sim/scenario.hpp"

namespace rangebench {

// ------------------------------------------------------------------ inputs

/// Every unordered pair of the paper's office testbed locations
/// (sim::office_testbed, 30 spots) 1-15 m apart, LOS and NLOS mixed, in a
/// fixed canonical order. Each workload ranges this whole universe once in
/// its exact pass, so accuracy and exact counts never depend on which
/// placements a seed happened to draw: the |ToF error| distribution has a
/// cliff near its p90 (p84 ~0.6 ns, p92 ~1.9 ns), and a different sample
/// of placements or noise moves its p90 by 15-60%.
std::vector<chronos::sim::Placement> testbed_pairs(
    const chronos::sim::Scenario& scenario);

/// A seeded permutation of 0..n-1 (the workload's visiting order).
std::vector<std::size_t> seeded_order(std::size_t n, chronos::mathx::Rng rng);

/// The measurement-noise stream of pass `pass` over universe link `link`.
/// Keyed by the link, not the seed, for the reason given above; the seed
/// still sets the visiting order, the calibration draw and (daemon) the
/// client split and round orders.
chronos::mathx::Rng noise_stream(std::uint64_t link, std::uint64_t pass);

/// Calibration sweeps averaged by every engine the benchmark builds. With
/// the default 4, the seeded calibration draw alone moves the universe's
/// |ToF error| p90 by up to 20% (the cliff again); 32 sweeps bring that
/// to about 2% for about 0.2 s more set-up.
inline constexpr int kCalibrationSweeps = 32;

// ------------------------------------------------------------------ clocks

/// Steady-clock seconds since the first call in this process.
double now_s();
/// CPU seconds of the whole process / of a running thread.
double process_cpu_s();
double thread_cpu_s(std::thread& thread);
/// Peak resident set of the process [MB].
double peak_rss_mb();

// ---------------------------------------------------------- host speed

/// A shared host can slow a VM's CPUs by 2-10x for seconds at a time, and
/// CPU time then moves one-for-one with wall time, so raw timings of one
/// run say more about the neighbours than about the code. Every timing is
/// therefore normalised: a fixed reference kernel (phasors plus dense
/// complex multiply-accumulate on L1-resident data, code of this directory
/// only) is timed on the caller's thread right before and after each call,
/// and the call's wall time is scaled by speed_factor() of the two. The
/// result reads as the call's wall time at the host's nominal speed.
inline constexpr double kNominalProbeS = 55e-6;

/// Runs the reference kernel once on the calling thread; its duration [s].
double reference_probe_s();

/// Speed factor of a stretch of work bracketed by two probes. The faster
/// probe wins: one probe preempted by a stray context switch must not
/// rescale a whole call.
inline double speed_factor(double probe_before_s, double probe_after_s) {
  return kNominalProbeS / std::min(probe_before_s, probe_after_s);
}

// -------------------------------------------------------------- statistics

/// q-quantile (q in [0, 1]) with linear interpolation; 0 for no samples.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// FNV-1a over exact bit patterns: the reproducibility digest.
struct Digest {
  std::uint64_t value = 1469598103934665603ull;
  void add_u64(std::uint64_t x);
  void add_double(double x);
};

// ----------------------------------------------------------------- tracing

/// One recorded span. Spans opened on one thread nest: `parent` is the
/// innermost span open on that thread when this one started (-1 for a
/// root). Spans from threads the benchmark does not own (daemon shard
/// workers) are roots carrying a `key` the workload matches to its calls.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int64_t request = -1;  ///< call index, -1 when none
  std::uint64_t key = 0;
  int thread = 0;
  bool probe = false;  ///< stage re-execution, never inside a call span
  double duration_s() const { return end_s - start_s; }
};

/// In-memory span recorder; a no-op until enable() (untraced runs never
/// record). Each thread appends to its own buffer; spans() merges them.
class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; inactive when tracing is off or
  /// `name` is null (an untraced call in a traced run).
  class Scope {
   public:
    Scope(const char* name, std::int64_t request, bool probe = false,
          std::uint64_t key = 0);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    /// Ends the span now; returns its duration in seconds (0 if inactive).
    double close();

   private:
    std::int64_t slot_ = -1;
    double start_s_ = 0.0;
  };

  /// Whether the calling thread currently has an open span.
  static bool in_span();
  /// Marks the calling thread as a benchmark caller: sweep spans on it are
  /// recorded only inside an open span (never for untraced calls).
  static void mark_caller_thread();
  static bool is_caller_thread();

  /// Every recorded span, ordered by start time.
  std::vector<Span> spans() const;
  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  struct ThreadLog;
  friend class Scope;
  static ThreadLog& local();

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadLog>> logs_;
};

/// Self time of every span: its duration minus the part of it covered by
/// its children (same-thread nesting). Indexed like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

/// SweepSource decorator that records a span named `span_name` around
/// every inner sweep_for when tracing is on. Everything else forwards.
class TimedSource final : public chronos::core::SweepSource {
 public:
  TimedSource(std::shared_ptr<const chronos::core::SweepSource> inner,
              const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}

  bool has_node(chronos::NodeId id) const override;
  [[nodiscard]] chronos::Result<std::size_t> antenna_count(
      chronos::NodeId id) const override;
  std::vector<chronos::NodeId> nodes() const override;
  [[nodiscard]] chronos::Result<chronos::core::ResolvedRequest> resolve(
      const chronos::RangingRequest& request) const override;
  [[nodiscard]] chronos::Result<chronos::phy::SweepMeasurement> sweep_for(
      const chronos::core::ResolvedRequest& req,
      chronos::mathx::Rng& rng) const override;
  const std::vector<chronos::phy::WifiBand>& bands() const override;
  bool has_geometry() const override;
  std::string backend_name() const override;

 private:
  std::shared_ptr<const chronos::core::SweepSource> inner_;
  const char* span_name_;
};

// -------------------------------------------------------------- the team

/// A fixed set of caller threads that run one function together on
/// demand (fork-join). Threads persist across run() calls, so the
/// thread-local solver workspaces warmed during set-up are the ones the
/// measured phase uses.
class Team {
 public:
  explicit Team(int size);
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;
  ~Team();

  int size() const { return static_cast<int>(threads_.size()); }
  /// Runs fn(member) on every member and waits; rethrows the first
  /// exception a member raised.
  void run(const std::function<void(int)>& fn);

 private:
  void loop(int member);

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;  // last: started after the state above
};

// ------------------------------------------------------------------ report

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< digests and trace files go here
};

/// One timed call of the closed loop.
struct CallSample {
  std::uint64_t index = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  bool ok = false;
  bool traced = false;
  int ranges_ok = 0;  ///< antenna-pair ranges completed ok by this call
  double speed = 1.0;  ///< speed_factor() of the probes around the call
};

/// What a workload run hands back to main().
struct Report {
  std::vector<CallSample> calls;   ///< measured phase, all threads
  double phase_start_s = 0.0;
  double phase_end_s = 0.0;
  double phase_cpu_s = 0.0;
  double phase_probe_s = 0.0;      ///< reference-probe CPU inside the phase
  std::vector<double> tof_err_ns;  ///< every ok pair range of the phase
  std::vector<double> setup_s;     ///< one entry per set-up repetition
  std::vector<double> setup_speed; ///< speed factor of each set-up
  /// Per-layer metric values (traced run), keyed by metric name.
  std::map<std::string, double> layer;
  /// Output-check failures; empty means every check passed.
  std::vector<std::string> problems;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

/// Set-up repetitions per run: setup_s reports their median.
inline constexpr int kSetupRepeats = 3;

/// The traced run traces every fourth call slot (the slot also runs an
/// untraced copy for the overhead comparison, then the probe); which copy
/// runs first alternates between traced slots.
inline bool traced_slot(std::uint64_t slot) { return slot % 4 == 3; }
inline bool traced_first(std::uint64_t slot) { return slot % 8 == 3; }

/// Per-phase set-up timings across repetitions. Each phase is also a span
/// in the traced run, so sweeps recorded during set-up nest under it, and
/// gets its own speed factor from reference probes taken during it.
class SetupLog {
 public:
  /// Starts the next set-up repetition.
  void begin() { reps_.emplace_back(); }
  /// Runs `fn` as phase `name` of the current repetition.
  void phase(const char* name, const std::function<void()>& fn);
  /// Median over repetitions of every phase, as "<name>_ms" metrics
  /// (speed-normalised).
  std::map<std::string, double> medians_ms() const;
  /// Speed factor of the current repetition: normalised over raw phase
  /// time.
  double speed() const;

 private:
  struct Rep {
    std::map<std::string, double> norm_ms;
    double raw_s = 0.0;
    double norm_s = 0.0;
  };
  std::vector<Rep> reps_;
};

/// Builds a workload kSetupRepeats times, keeping the last build, and
/// records each set-up's wall time and speed factor in `report`.
template <typename Build>
auto repeat_setup(Report& report, SetupLog& log, Build&& build) {
  decltype(build()) rig;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    rig.reset();
    log.begin();
    const double t0 = now_s();
    rig = build();
    report.setup_s.push_back(now_s() - t0);
    report.setup_speed.push_back(log.speed());
  }
  return rig;
}

/// Summed span time [ms] per call index and span name; spans inside a
/// probe are keyed "<name>@probe".
using RequestSpans = std::map<std::int64_t, std::map<std::string, double>>;
RequestSpans spans_by_request(const std::vector<Span>& spans);

/// Sets trace.overhead_pct (traced vs untraced call p50 over identical
/// inputs; probe spans run outside calls) and probe.mismatches, and notes
/// both for the traced run's output.
void report_overhead(int probe_mismatches, Report& report);

/// What the probe's re-executed stages produced for a call's sweeps.
struct StageReplay {
  bool screens_ok = true;
  std::vector<int> iterations;  ///< per sweep, from the timed solve stage
  std::vector<chronos::core::RangingResult> estimates;  ///< per sweep
};

/// Re-executes the ranging pipeline's stages on `sweeps` as spans of the
/// enclosing probe: core::screen_sweep ("integrity.screen"),
/// core::combine_sweep + NdftSolver::apply_weights ("combine"), then for
/// one sweep NdftSolver::solve_fista ("ndft.solve") and
/// RangingPipeline::estimate, for several the grouped path Engine::locate
/// runs — panels of kPanelWidth through solve_fista_batch ("ndft.panel")
/// and estimate_batch — ("ranging.estimate"; span key = sweeps covered).
StageReplay replay_stages(const chronos::core::RangingPipeline& pipeline,
                          std::span<const chronos::phy::WifiBand> plan,
                          const chronos::core::CalibrationTable& calibration,
                          std::span<const chronos::phy::SweepMeasurement> sweeps);

/// Pair panel width of Engine::locate's grouped solve (one 8-sweep panel
/// plus one for a 3x3 laptop pair).
inline constexpr std::size_t kPanelWidth = 8;

/// The exact bit pattern of a double (ToF comparisons are bitwise).
std::uint64_t bits_of(double x);

/// The reproducibility digest of the first calls of a run, checked against
/// the digest an earlier run of the same build and seed stored under
/// out_dir (untraced and traced runs alike). Adds a problem on mismatch.
void check_digest(const RunConfig& config, const Digest& digest,
                  std::uint64_t calls, Report& report);

/// Durations [ms] of the spans named `name`, optionally only those whose
/// parent span is named `parent`.
std::vector<double> span_durations_ms(const std::vector<Span>& spans,
                                      const std::string& name,
                                      const std::string& parent = "");

Report run_office_range(const RunConfig& config);
Report run_office_locate(const RunConfig& config);
Report run_daemon_replay(const RunConfig& config);

}  // namespace rangebench
