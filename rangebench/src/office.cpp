// The two in-process office workloads, both on the paper's office testbed
// (sim::office_testbed) with 1-15 m pairs, LOS and NLOS mixed:
//
//   office_range   single-antenna mobiles; one caller thread calls
//                  Engine::measure back to back (one request outstanding).
//   office_locate  3-antenna laptops at both ends; three caller threads
//                  share one engine, each calling
//                  Engine::locate(..., BatchOptions{1}) back to back — nine
//                  pair ranges through the grouped estimate_batch path,
//                  then trilateration.
//
// The links are the testbed's pair universe (harness.hpp) in a seeded
// order. Call i ranges link i mod |links| in pass i / |links| on that
// link's noise stream, so every call's result is a pure function of
// (seed, i). The first pass is the exact pass: it gives the accuracy
// metrics, the reproducibility digest and the exact per-layer counts,
// whatever the run length or thread timing, and the measured phase never
// ends before it is complete.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/localization.hpp"
#include "core/ranging.hpp"
#include "core/sweep_source.hpp"
#include "harness.hpp"
#include "mathx/constants.hpp"
#include "mathx/rng.hpp"
#include "mathx/stream_tags.hpp"
#include "sim/radio.hpp"
#include "sim/scenario.hpp"

namespace rangebench {
namespace {

namespace core = chronos::core;
namespace sim = chronos::sim;
namespace mathx = chronos::mathx;
using chronos::NodeId;

// Child streams of Rng(seed): one per kind of generated input.
constexpr std::uint64_t kOrderStream = 1;
constexpr std::uint64_t kCalibrationStream = 2;
/// Noise pass of the warm-up calls, far from any measured pass.
constexpr std::uint64_t kWarmupPass = 0xFFFFF;

// Two physical cards (radio personalities), one node id per placement.
constexpr std::uint64_t kTxPersonality = 11;
constexpr std::uint64_t kRxPersonality = 22;
constexpr std::uint64_t kTxIdBase = 100000;
constexpr std::uint64_t kRxIdBase = 200000;
constexpr NodeId kCalTx{1};
constexpr NodeId kCalRx{2};

struct Link {
  std::uint64_t id = 0;  ///< universe index: node ids and noise stream
  NodeId tx, rx;
  sim::Device tx_device, rx_device;
  chronos::geom::Vec2 tx_center;
};

struct Shape {
  bool laptops;
  int callers;
  int warmup_calls_per_caller;
  const char* call_span;
};

constexpr Shape kRangeShape{false, 1, 16, "engine.measure"};
constexpr Shape kLocateShape{true, 3, 2, "engine.locate"};

sim::Device make_device(bool laptop, chronos::geom::Vec2 at,
                        std::uint64_t personality) {
  return laptop ? sim::make_laptop(at, 0.3, personality)
                : sim::make_mobile(at, personality);
}

/// The universe's links, indexed by Link::id.
std::vector<Link> make_links(const sim::Scenario& scenario, bool laptops) {
  const std::vector<sim::Placement> universe = testbed_pairs(scenario);
  std::vector<Link> links;
  links.reserve(universe.size());
  for (std::uint64_t u = 0; u < universe.size(); ++u) {
    const sim::Placement& pl = universe[u];
    links.push_back({u, NodeId{kTxIdBase + u}, NodeId{kRxIdBase + u},
                     make_device(laptops, pl.tx, kTxPersonality),
                     make_device(laptops, pl.rx, kRxPersonality), pl.tx});
  }
  return links;
}

double true_tof_s(const Link& link, std::size_t ta, std::size_t ra) {
  return chronos::mathx::distance_to_tof(chronos::geom::distance(
      link.tx_device.antennas[ta], link.rx_device.antennas[ra]));
}

/// Everything a run builds before its first timed call.
struct Rig {
  std::vector<Link> links;         ///< indexed by Link::id
  std::vector<std::size_t> order;  ///< seeded visiting order of the links
  std::shared_ptr<core::SimSweepSource> sim;
  chronos::Engine engine;
  /// The pipeline the probe re-executes stages on (traced runs only):
  /// same bands and default RangingConfig as the engine's own.
  std::unique_ptr<core::RangingPipeline> probe;
  std::unique_ptr<Team> team;
};

/// One antenna-pair outcome kept for the digest and exact counts.
struct PairOutcome {
  int code = 0;
  double tof_s = 0.0;
  int iterations = 0;
  int candidates = 0;
};

/// What one call produced: the pair outcomes (digest and exact counts),
/// its accuracy samples, and the library result the probe checks.
struct CallOutcome {
  std::uint64_t index = 0;
  std::vector<PairOutcome> pairs;
  std::vector<double> tof_err_ns;
  double loc_err_m = 0.0;
  std::optional<core::RangingResult> range;      ///< ok office_range call
  std::optional<chronos::LocateOutcome> locate;  ///< ok office_locate call
};

bool same_bits(const CallOutcome& a, const CallOutcome& b) {
  if (a.pairs.size() != b.pairs.size()) return false;
  for (std::size_t k = 0; k < a.pairs.size(); ++k) {
    if (a.pairs[k].code != b.pairs[k].code ||
        bits_of(a.pairs[k].tof_s) != bits_of(b.pairs[k].tof_s)) {
      return false;
    }
  }
  return true;
}

/// Per-caller results, merged after the phase.
struct Tally {
  std::vector<CallSample> calls;
  std::vector<CallOutcome> exact;  ///< this caller's calls of the exact pass
  std::vector<double> tof_err_ns;  ///< ok pair ranges of the exact pass
  int probe_mismatches = 0;
  int trace_mismatches = 0;
  double probe_s = 0.0;  ///< reference-probe time on this caller
};

chronos::RangingRequest pair_request(const Link& link, std::size_t ta,
                                     std::size_t ra) {
  return {{link.tx, ta}, {link.rx, ra}};
}

// ------------------------------------------------------------------ probe

/// Re-executes the stages of one traced call's sweeps (captured again on a
/// copy of the call's stream); false when they disagree with the call.
bool probe_sweeps(const Rig& rig,
                  std::span<const chronos::phy::SweepMeasurement> sweeps,
                  std::span<const core::RangingResult> results) {
  const StageReplay replay = replay_stages(
      *rig.probe, rig.sim->bands(), rig.engine.calibration(), sweeps);
  bool agree = replay.screens_ok;
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    agree = agree && replay.iterations[k] == results[k].solver_iterations &&
            bits_of(replay.estimates[k].tof_s) == bits_of(results[k].tof_s);
  }
  return agree;
}

bool probe_range(const Rig& rig, const Link& link, mathx::Rng rng,
                 std::uint64_t index, const core::RangingResult& result) {
  Tracer::Scope root("probe", static_cast<std::int64_t>(index), true);
  chronos::Result<chronos::phy::SweepMeasurement> sweep =
      chronos::Status{chronos::StatusCode::kInternal, "not captured"};
  {
    Tracer::Scope span("probe.capture", -1);
    sweep = rig.engine.capture_sweep(pair_request(link, 0, 0), rng);
  }
  if (!sweep.ok()) return false;
  return probe_sweeps(rig, std::span(&sweep.value(), 1),
                      std::span(&result, 1));
}

bool probe_locate(const Rig& rig, const Link& link, mathx::Rng rng,
                  std::uint64_t index, const chronos::LocateOutcome& out) {
  Tracer::Scope root("probe", static_cast<std::int64_t>(index), true);
  // Engine::locate ranges its pairs tx-major on fork(kBatchStreamTag)
  // split(k) of the caller's stream: the same tickets, captured again.
  const mathx::Rng base = rng.fork(chronos::kBatchStreamTag);
  const auto& tx = link.tx_device.antennas;
  const auto& rx = link.rx_device.antennas;
  std::vector<chronos::phy::SweepMeasurement> sweeps;
  for (std::size_t ta = 0; ta < tx.size(); ++ta) {
    for (std::size_t ra = 0; ra < rx.size(); ++ra) {
      mathx::Rng child = base.split(sweeps.size());
      Tracer::Scope span("probe.capture", -1);
      auto sweep = rig.engine.capture_sweep(pair_request(link, ta, ra), child);
      if (!sweep.ok()) return false;
      sweeps.push_back(std::move(sweep).value());
    }
  }
  if (out.details.size() != sweeps.size()) return false;
  bool agree = probe_sweeps(rig, sweeps, out.details);

  // The trilateration the call ran: one fit per transmit antenna, then
  // the joint fit over every pair range.
  Tracer::Scope span("localization", -1);
  std::vector<chronos::geom::Vec2> anchors;
  std::vector<double> all;
  for (std::size_t ta = 0, k = 0; ta < tx.size(); ++ta) {
    std::vector<double> distances;
    for (std::size_t ra = 0; ra < rx.size(); ++ra, ++k) {
      distances.push_back(out.details[k].distance_m);
      anchors.push_back(rx[ra]);
      all.push_back(out.details[k].distance_m);
    }
    (void)core::localize(rx, distances);
  }
  const core::LocalizationResult joint = core::localize(anchors, all);
  agree = agree && bits_of(joint.position.x) == bits_of(out.result.position.x) &&
          bits_of(joint.position.y) == bits_of(out.result.position.y);
  return agree;
}

// ------------------------------------------------------------------ calls

PairOutcome pair_outcome(const core::RangingResult& r) {
  return {static_cast<int>(r.status.code()), r.tof_s, r.solver_iterations,
          static_cast<int>(r.candidates.size())};
}

/// Call `index` ranges the link at position index mod |links| of the
/// seeded order, in pass index / |links|, on that pass's noise stream.
const Link& call_link(const Rig& rig, std::uint64_t index) {
  return rig.links[rig.order[index % rig.order.size()]];
}

mathx::Rng call_stream(const Rig& rig, std::uint64_t index) {
  return noise_stream(call_link(rig, index).id, index / rig.order.size());
}

/// One call: ranges `link` on `rng` and fills `sample` (a span when
/// sample.traced).
CallOutcome run_call(const Rig& rig, const Shape& shape, const Link& link,
                     mathx::Rng rng, CallSample& sample) {
  CallOutcome out;
  out.index = sample.index;
  Tracer::Scope span(sample.traced ? shape.call_span : nullptr,
                     static_cast<std::int64_t>(sample.index));

  if (!shape.laptops) {
    sample.start_s = now_s();
    auto result = rig.engine.measure(pair_request(link, 0, 0), rng);
    sample.end_s = now_s();
    span.close();
    sample.ok = result.ok();
    if (!result.ok()) {
      out.pairs.push_back({static_cast<int>(result.status().code()), 0.0, 0, 0});
      return out;
    }
    out.range = std::move(result).value();
    out.pairs.push_back(pair_outcome(*out.range));
    out.tof_err_ns.push_back(
        std::abs(out.range->tof_s - true_tof_s(link, 0, 0)) * 1e9);
    sample.ranges_ok = 1;
    return out;
  }

  sample.start_s = now_s();
  auto result = rig.engine.locate(link.tx, link.rx, rng, std::nullopt,
                                  chronos::BatchOptions{1});
  sample.end_s = now_s();
  span.close();
  sample.ok = result.ok() && result.value().status.ok();
  if (!sample.ok) {
    out.pairs.push_back(
        {static_cast<int>(result.ok() ? result.value().status.code()
                                      : result.status().code()),
         0.0, 0, 0});
    return out;
  }
  out.locate = std::move(result).value();
  const std::size_t n_rx = link.rx_device.antennas.size();
  for (std::size_t k = 0; k < out.locate->details.size(); ++k) {
    const core::RangingResult& r = out.locate->details[k];
    out.pairs.push_back(pair_outcome(r));
    if (!r.status.ok()) {
      sample.ok = false;
      continue;
    }
    ++sample.ranges_ok;
    out.tof_err_ns.push_back(
        std::abs(r.tof_s - true_tof_s(link, k / n_rx, k % n_rx)) * 1e9);
  }
  out.loc_err_m =
      chronos::geom::distance(out.locate->result.position, link.tx_center);
  return out;
}

/// Probes a traced call; true when the re-executed stages agree with it.
bool probe_call(const Rig& rig, const CallOutcome& out) {
  const Link& link = call_link(rig, out.index);
  const mathx::Rng rng = call_stream(rig, out.index);
  if (out.range) return probe_range(rig, link, rng, out.index, *out.range);
  if (out.locate) return probe_locate(rig, link, rng, out.index, *out.locate);
  return true;  // a failed call has no stages to re-execute
}

/// Ranges call `index` and files it in `tally`. In the traced run every
/// traced_slot() call runs twice on identical inputs, traced and untraced
/// in alternating order, so the overhead compares like with like and the
/// two copies must agree bit for bit; the traced copy is returned for the
/// probe.
std::optional<CallOutcome> measure_call(const Rig& rig, const Shape& shape,
                                        std::uint64_t index, bool trace,
                                        Tally& tally) {
  const Link& link = call_link(rig, index);
  const mathx::Rng rng = call_stream(rig, index);
  CallSample plain;
  plain.index = index;
  CallOutcome out;
  std::optional<CallOutcome> traced_out;
  if (!trace || !traced_slot(index)) {
    out = run_call(rig, shape, link, rng, plain);
  } else {
    CallSample traced = plain;
    traced.traced = true;
    if (traced_first(index)) {
      traced_out = run_call(rig, shape, link, rng, traced);
      out = run_call(rig, shape, link, rng, plain);
    } else {
      out = run_call(rig, shape, link, rng, plain);
      traced_out = run_call(rig, shape, link, rng, traced);
    }
    if (!same_bits(out, *traced_out)) ++tally.trace_mismatches;
    tally.calls.push_back(traced);
  }
  tally.calls.push_back(plain);
  if (index < rig.order.size()) {  // the exact pass
    tally.tof_err_ns.insert(tally.tof_err_ns.end(), out.tof_err_ns.begin(),
                            out.tof_err_ns.end());
    out.range.reset();
    out.locate.reset();
    tally.exact.push_back(std::move(out));
  }
  return traced_out;
}

// ------------------------------------------------------------------ setup

std::unique_ptr<Rig> build_rig(const RunConfig& config, const Shape& shape,
                               SetupLog& log) {
  auto rig = std::make_unique<Rig>();
  log.phase("setup.engine", [&] {
    const sim::Scenario scenario = sim::office_testbed();
    rig->links = make_links(scenario, shape.laptops);
    rig->order = seeded_order(rig->links.size(),
                              mathx::Rng(config.seed).split(kOrderStream));
    rig->sim = std::make_shared<core::SimSweepSource>(scenario.environment(),
                                                      sim::LinkSimConfig{});
    for (const Link& link : rig->links) {
      rig->sim->add_node(link.tx, link.tx_device);
      rig->sim->add_node(link.rx, link.rx_device);
    }
    rig->sim->add_node(kCalTx, make_device(shape.laptops, {0.0, 0.0},
                                           kTxPersonality));
    rig->sim->add_node(kCalRx, make_device(shape.laptops, {1.0, 0.0},
                                           kRxPersonality));
    chronos::EngineOptions options;
    options.calibration_sweeps = kCalibrationSweeps;
    rig->engine = chronos::Engine::adopt(
        std::make_shared<TimedSource>(rig->sim, "sim.sweep_for"), options);
    if (config.trace) {
      rig->probe = std::make_unique<core::RangingPipeline>(
          rig->sim->bands(), chronos::EngineOptions{}.ranging);
    }
    rig->team = std::make_unique<Team>(shape.callers);
  });
  log.phase("setup.calibrate", [&] {
    mathx::Rng rng = mathx::Rng(config.seed).split(kCalibrationStream);
    const chronos::Status status = rig->engine.calibrate(kCalTx, kCalRx, rng);
    if (!status.ok()) {
      throw std::runtime_error("calibration failed: " + status.to_string());
    }
  });
  log.phase("setup.warmup", [&] {
    // Fills each caller's thread-local solver workspace and the plan
    // caches. The same links for every seed, so set-up work never depends
    // on the seed's visiting order.
    rig->team->run([&](int member) {
      for (int w = 0; w < shape.warmup_calls_per_caller; ++w) {
        CallSample sample;
        sample.index = static_cast<std::uint64_t>(
            member * shape.warmup_calls_per_caller + w);
        (void)run_call(*rig, shape, rig->links[sample.index],
                       noise_stream(sample.index, kWarmupPass), sample);
      }
    });
  });
  return rig;
}

// ----------------------------------------------------------------- report

void per_layer(const Shape& shape, const std::vector<CallOutcome>& exact,
               int probe_mismatches, Report& report) {
  const std::vector<Span> spans = Tracer::instance().spans();
  auto& layer = report.layer;
  layer["sim.sweep_ms_p50"] = quantile(
      span_durations_ms(spans, "sim.sweep_for", shape.call_span), 0.5);
  layer["integrity.screen_ms_p50"] =
      quantile(span_durations_ms(spans, "integrity.screen"), 0.5);
  layer["combine.ms_p50"] = quantile(span_durations_ms(spans, "combine"), 0.5);

  // Per-sweep solve times: single solves, or each panel's time shared
  // evenly by its right-hand sides.
  std::vector<double> solve_ms = span_durations_ms(spans, "ndft.solve");
  double panel_ms = 0.0, panel_rhs = 0.0;
  for (const Span& s : spans) {
    if (s.name != "ndft.panel") continue;
    const double n = static_cast<double>(s.key);
    panel_ms += s.duration_s() * 1e3;
    panel_rhs += n;
    for (std::uint64_t k = 0; k < s.key; ++k) {
      solve_ms.push_back(s.duration_s() * 1e3 / n);
    }
  }
  layer["ndft.solve_ms_p50"] = quantile(solve_ms, 0.5);
  layer["ndft.solve_ms_p90"] = quantile(solve_ms, 0.9);
  layer["ndft.panel_ms_per_rhs"] = panel_rhs > 0 ? panel_ms / panel_rhs : 0.0;

  std::vector<double> iterations, candidates, loc_err;
  int rejects = 0;
  for (const CallOutcome& d : exact) {
    for (const PairOutcome& p : d.pairs) {
      iterations.push_back(p.iterations);
      candidates.push_back(p.candidates);
      if (p.code == static_cast<int>(chronos::StatusCode::kIntegrityViolation) ||
          p.code == static_cast<int>(chronos::StatusCode::kMalformedSweep)) {
        ++rejects;
      }
    }
    if (shape.laptops) loc_err.push_back(d.loc_err_m);
  }
  layer["ndft.iterations_mean"] = mean(iterations);
  layer["ndft.iterations_p90"] = quantile(iterations, 0.9);
  layer["ranging.candidates_mean"] = mean(candidates);
  layer["integrity.rejects"] = rejects;
  layer["localization.err_m_p50"] = quantile(loc_err, 0.5);
  layer["localization.err_m_p90"] = quantile(loc_err, 0.9);

  // Per-request arithmetic on the same sweeps: peak selection is what
  // estimate spends beyond screen, combine and solve; the locate adapter
  // is the call minus its pair sweeps, pair estimates and trilateration.
  std::vector<double> peak_ms, adapter_ms;
  for (const auto& [request, ms] : spans_by_request(spans)) {
    const auto get = [&ms](const char* key) {
      const auto it = ms.find(key);
      return it == ms.end() ? 0.0 : it->second;
    };
    const double estimate = get("ranging.estimate@probe");
    if (estimate <= 0.0) continue;
    const double pairs = shape.laptops ? 9.0 : 1.0;
    peak_ms.push_back((estimate - get("integrity.screen@probe") -
                       get("combine@probe") - get("ndft.solve@probe") -
                       get("ndft.panel@probe")) /
                      pairs);
    if (shape.laptops) {
      adapter_ms.push_back(get(shape.call_span) - get("sim.sweep_for") -
                           estimate - get("localization@probe"));
    }
  }
  layer["ranging.peak_ms_p50"] = quantile(peak_ms, 0.5);
  layer["locate.adapter_ms_p50"] = quantile(adapter_ms, 0.5);
  layer["localization.ms_p50"] =
      quantile(span_durations_ms(spans, "localization"), 0.5);

  report_overhead(probe_mismatches, report);
}

Report run_office(const RunConfig& config, const Shape& shape) {
  Report report;
  SetupLog log;
  std::unique_ptr<Rig> rig = repeat_setup(
      report, log, [&] { return build_rig(config, shape, log); });

  // Closed loop: each caller takes the next call index, ranges it, and
  // stops once the time is up and the exact pass has been taken. The
  // reference probe brackets every call on the caller's thread.
  const std::uint64_t exact_calls = rig->links.size();
  std::vector<Tally> tallies(static_cast<std::size_t>(shape.callers));
  std::atomic<std::uint64_t> next{0};
  const double cpu0 = process_cpu_s();
  report.phase_start_s = now_s();
  const double deadline = report.phase_start_s + config.seconds;
  rig->team->run([&](int member) {
    Tally& tally = tallies[static_cast<std::size_t>(member)];
    tally.calls.reserve(8192);
    double before = reference_probe_s();
    tally.probe_s += before;
    for (;;) {
      const std::uint64_t index = next.fetch_add(1);
      if (index >= exact_calls && now_s() >= deadline) break;
      const std::size_t first = tally.calls.size();
      const std::optional<CallOutcome> traced =
          measure_call(*rig, shape, index, config.trace, tally);
      const double after = reference_probe_s();
      tally.probe_s += after;
      for (std::size_t k = first; k < tally.calls.size(); ++k) {
        tally.calls[k].speed = speed_factor(before, after);
      }
      before = after;
      if (traced) {
        if (!probe_call(*rig, *traced)) ++tally.probe_mismatches;
        before = reference_probe_s();
        tally.probe_s += before;
      }
    }
  });
  report.phase_cpu_s = process_cpu_s() - cpu0;

  std::vector<CallOutcome> exact;
  int probe_mismatches = 0, trace_mismatches = 0;
  for (Tally& t : tallies) {
    report.phase_probe_s += t.probe_s;
    report.calls.insert(report.calls.end(), t.calls.begin(), t.calls.end());
    report.tof_err_ns.insert(report.tof_err_ns.end(), t.tof_err_ns.begin(),
                             t.tof_err_ns.end());
    for (auto& d : t.exact) exact.push_back(std::move(d));
    probe_mismatches += t.probe_mismatches;
    trace_mismatches += t.trace_mismatches;
  }
  report.phase_end_s = report.phase_start_s;
  for (const CallSample& c : report.calls) {
    report.phase_end_s = std::max(report.phase_end_s, c.end_s);
  }
  std::sort(exact.begin(), exact.end(),
            [](const CallOutcome& a, const CallOutcome& b) {
              return a.index < b.index;
            });

  if (trace_mismatches > 0) {
    report.problems.push_back(std::to_string(trace_mismatches) +
                              " traced calls differ from their untraced copy");
  }
  Digest digest;
  for (const CallOutcome& d : exact) {
    digest.add_u64(d.index);
    for (const PairOutcome& p : d.pairs) {
      digest.add_u64(static_cast<std::uint64_t>(p.code));
      digest.add_double(p.tof_s);
    }
  }
  check_digest(config, digest, exact_calls, report);
  if (probe_mismatches > 0) {
    report.problems.push_back(std::to_string(probe_mismatches) +
                              " probe re-executions disagree with their call");
  }

  if (config.trace) {
    per_layer(shape, exact, probe_mismatches, report);
    for (const auto& [name, ms] : log.medians_ms()) report.layer[name] = ms;
  }
  return report;
}

}  // namespace

Report run_office_range(const RunConfig& config) {
  return run_office(config, kRangeShape);
}

Report run_office_locate(const RunConfig& config) {
  return run_office(config, kLocateShape);
}

}  // namespace rangebench
