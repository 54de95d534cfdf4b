// rangebench: the ranging benchmark's entry point.
//
//   rangebench --workload <office_range|office_locate|daemon_replay>
//              --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Builds the workload's inputs from the seed, sets up kSetupRepeats times
// (setup_s is their median), drives the last set-up as a closed loop for
// --seconds, checks the outputs, and prints one JSON object as the last
// line of stdout: the end-to-end metrics with --trace 0, the per-layer
// metrics of the traced run with --trace 1 (spans also go to
// <out-dir>/trace-<workload>-seed<n>.jsonl).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace rangebench;

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* layer;  ///< per-layer metrics: the layer (module) timed
  const char* moves;  ///< per-layer metrics: the end-to-end metric it moves
};

constexpr MetricInfo kEndToEnd[] = {
    {"call_ms_p50", "ms", "", ""},
    {"call_ms_p90", "ms", "", ""},
    {"ranges_per_s", "1/s", "", ""},
    {"cpu_ms_per_range", "ms", "", ""},
    {"ok_ratio", "ratio", "", ""},
    {"tof_err_ns_p50", "ns", "", ""},
    {"tof_err_ns_p90", "ns", "", ""},
    {"setup_s", "s", "", ""},
    {"peak_rss_mb", "MB", "", ""},
};

constexpr MetricInfo kPerLayer[] = {
    {"sim.sweep_ms_p50", "ms", "sim",
     "call_ms_p50, ranges_per_s on office_range, office_locate"},
    {"replay.sweep_ms_p50", "ms", "core.sweep_source",
     "call_ms_p50 on daemon_replay"},
    {"integrity.screen_ms_p50", "ms", "core.integrity",
     "call_ms_p50 on daemon_replay"},
    {"integrity.rejects", "count", "core.integrity", "ok_ratio on all"},
    {"combine.ms_p50", "ms", "core.combining",
     "call_ms_p50 on all (small share)"},
    {"ndft.solve_ms_p50", "ms", "core.ndft",
     "call_ms_p50/p90, cpu_ms_per_range on all"},
    {"ndft.solve_ms_p90", "ms", "core.ndft",
     "call_ms_p50/p90, cpu_ms_per_range on all"},
    {"ndft.iterations_mean", "count", "core.ndft",
     "call_ms_p50, cpu_ms_per_range on all; tof_err must hold"},
    {"ndft.iterations_p90", "count", "core.ndft",
     "call_ms_p90 on all; tof_err must hold"},
    {"ndft.panel_ms_per_rhs", "ms", "core.ndft", "call_ms_p50 on office_locate"},
    {"ranging.peak_ms_p50", "ms", "core.ranging", "call_ms_p50 on all"},
    {"ranging.candidates_mean", "count", "core.ranging", "call_ms_p50 on all"},
    {"localization.ms_p50", "ms", "core.localization",
     "call_ms_p50 on office_locate"},
    {"localization.err_m_p50", "m", "core.localization",
     "accuracy on office_locate"},
    {"localization.err_m_p90", "m", "core.localization",
     "accuracy on office_locate"},
    {"locate.adapter_ms_p50", "ms", "core.batch+engine",
     "call_ms_p50 on office_locate"},
    {"client.wire_retries", "count", "netd.client",
     "call_ms_p90 on daemon_replay"},
    {"wire.bytes_per_range", "bytes", "netd.wire",
     "cpu_ms_per_range on daemon_replay"},
    {"wire.codec_us_p50", "us", "netd.wire",
     "cpu_ms_per_range on daemon_replay"},
    {"daemon.demux_cpu_ms_per_range", "ms", "netd.daemon",
     "cpu_ms_per_range on daemon_replay"},
    {"daemon.wait_ms_p50", "ms", "netd.daemon",
     "call_ms_p90 on daemon_replay"},
    {"daemon.queue_full_ratio", "ratio", "netd.daemon",
     "call_ms_p90 on daemon_replay"},
    {"daemon.shard_max_share", "ratio", "netd.daemon",
     "call_ms_p90 on daemon_replay"},
    {"setup.engine_ms", "ms", "set-up", "setup_s"},
    {"setup.calibrate_ms", "ms", "set-up", "setup_s"},
    {"setup.record_ms", "ms", "set-up", "setup_s on daemon_replay"},
    {"setup.warmup_ms", "ms", "set-up", "setup_s"},
    {"trace.overhead_pct", "%", "tracing", "(none: traced run only)"},
    {"probe.mismatches", "count", "probe", "(self-check: must be 0)"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "rangebench: %s\nusage: rangebench --workload "
               "<office_range|office_locate|daemon_replay> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir>\n",
               why);
  return 2;
}

/// Every value printed with all its digits.
std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.out_dir.empty()) return usage("--out-dir is required");
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  Report (*run)(const RunConfig&) = nullptr;
  if (config.workload == "office_range") run = run_office_range;
  if (config.workload == "office_locate") run = run_office_locate;
  if (config.workload == "daemon_replay") run = run_daemon_replay;
  if (run == nullptr) return usage("unknown workload");

  Tracer::mark_caller_thread();
  if (config.trace) Tracer::instance().enable();
  Report report;
  try {
    report = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rangebench: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }

  // ---------------------------------------------------- end-to-end metrics
  // Timings are speed-normalised (harness.hpp, kNominalProbeS): per call
  // for latencies, by the phase's time-weighted speed for the rates.
  std::vector<double> call_ms, raw_call_ms, speeds;
  long attempted = 0, failed = 0;
  double ranges_ok = 0.0, busy_s = 0.0, busy_norm_s = 0.0;
  for (const CallSample& c : report.calls) {
    ++attempted;
    if (!c.ok) ++failed;
    ranges_ok += c.ranges_ok;
    busy_s += c.end_s - c.start_s;
    busy_norm_s += (c.end_s - c.start_s) * c.speed;
    speeds.push_back(c.speed);
    if (!c.traced) {
      call_ms.push_back((c.end_s - c.start_s) * c.speed * 1e3);
      raw_call_ms.push_back((c.end_s - c.start_s) * 1e3);
    }
  }
  const double phase_speed = busy_s > 0 ? busy_norm_s / busy_s : 1.0;
  const double wall_s = report.phase_end_s - report.phase_start_s;
  const double work_cpu_s = report.phase_cpu_s - report.phase_probe_s;
  std::vector<double> setup_norm_s;
  for (std::size_t i = 0; i < report.setup_s.size(); ++i) {
    setup_norm_s.push_back(report.setup_s[i] * report.setup_speed[i]);
  }
  std::vector<std::pair<const MetricInfo*, double>> e2e;
  const auto put = [&](const char* name, double value) {
    for (const MetricInfo& m : kEndToEnd) {
      if (std::strcmp(m.name, name) == 0) e2e.emplace_back(&m, value);
    }
  };
  put("call_ms_p50", quantile(call_ms, 0.5));
  put("call_ms_p90", quantile(call_ms, 0.9));
  put("ranges_per_s", wall_s > 0 ? ranges_ok / (wall_s * phase_speed) : 0.0);
  put("cpu_ms_per_range",
      ranges_ok > 0 ? work_cpu_s * phase_speed * 1e3 / ranges_ok : 0.0);
  put("ok_ratio", attempted > 0 ? static_cast<double>(attempted - failed) /
                                      static_cast<double>(attempted)
                                : 0.0);
  put("tof_err_ns_p50", quantile(report.tof_err_ns, 0.5));
  put("tof_err_ns_p90", quantile(report.tof_err_ns, 0.9));
  put("setup_s", quantile(setup_norm_s, 0.5));
  put("peak_rss_mb", peak_rss_mb());
  char raw[320];
  std::snprintf(raw, sizeof raw,
                "host speed: factor p50 %.3f (p10 %.3f, p90 %.3f) over the "
                "phase, %.3f over set-up; raw wall clock: call p50 %.4f ms, "
                "p90 %.4f ms, %.2f ranges/s, %.4f cpu ms/range, set-up %.4f s",
                quantile(speeds, 0.5), quantile(speeds, 0.1),
                quantile(speeds, 0.9), quantile(report.setup_speed, 0.5),
                quantile(raw_call_ms, 0.5), quantile(raw_call_ms, 0.9),
                wall_s > 0 ? ranges_ok / wall_s : 0.0,
                ranges_ok > 0 ? work_cpu_s * 1e3 / ranges_ok : 0.0,
                quantile(report.setup_s, 0.5));
  report.notes.push_back(raw);

  // ---------------------------------------------------------- output checks
  if (attempted == 0) report.problems.push_back("no call was measured");
  if (failed > 0) {
    report.problems.push_back(std::to_string(failed) + " of " +
                              std::to_string(attempted) +
                              " calls on honest traffic were not ok");
  }
  if (quantile(report.tof_err_ns, 0.5) >= 1.0) {
    report.problems.push_back("median ToF error reached 1 ns");
  }
  if (!config.trace && call_ms.size() < 100) {
    report.problems.push_back("fewer than 100 calls: p90 has under 10 "
                              "samples beyond it");
  }

  std::printf("rangebench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              config.workload.c_str(), config.seed, config.seconds,
              config.trace ? 1 : 0);
  std::printf("  measured phase: %.3f s wall, %ld calls (%zu untraced), "
              "%.0f ok pair ranges, %zu set-ups\n",
              wall_s, attempted, call_ms.size(), ranges_ok,
              report.setup_s.size());
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }

  std::string metrics;
  if (!config.trace) {
    std::printf("  %-18s %14s %-6s %s\n", "metric", "value", "unit",
                "samples");
    for (const auto& [m, v] : e2e) {
      std::size_t n = 1;
      if (std::strncmp(m->name, "call_ms", 7) == 0) n = call_ms.size();
      if (std::strncmp(m->name, "tof_err", 7) == 0) n = report.tof_err_ns.size();
      if (std::strcmp(m->name, "setup_s") == 0) n = report.setup_s.size();
      std::printf("  %-18s %14.6g %-6s n=%zu\n", m->name, v, m->unit, n);
      metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m->name +
                 "\": {\"value\": " + number(v) + ", \"unit\": \"" + m->unit +
                 "\"}";
    }
  } else {
    const std::string trace_path = config.out_dir + "/trace-" +
                                   config.workload + "-seed" +
                                   std::to_string(config.seed) + ".jsonl";
    if (!Tracer::instance().write_jsonl(trace_path)) {
      report.problems.push_back("could not write " + trace_path);
    }
    // Span table: count, p50 and summed self time per span name.
    const std::vector<Span> spans = Tracer::instance().spans();
    const std::vector<double> self = self_times(spans);
    std::map<std::string, std::pair<std::vector<double>, double>> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string key =
          spans[i].probe ? spans[i].name + " (probe)" : spans[i].name;
      by_name[key].first.push_back(spans[i].duration_s() * 1e3);
      by_name[key].second += self[i] * 1e3;
    }
    std::printf("  spans written to %s\n", trace_path.c_str());
    std::printf("  %-28s %8s %12s %14s   (raw wall clock)\n", "span", "count",
                "p50 [ms]", "self sum [ms]");
    for (const auto& [name, entry] : by_name) {
      std::printf("  %-28s %8zu %12.4f %14.2f\n", name.c_str(),
                  entry.first.size(), quantile(entry.first, 0.5),
                  entry.second);
    }
    std::printf("  %-30s %14s %-6s %-18s %s\n", "per-layer metric", "value",
                "unit", "layer", "should move");
    // Per-layer timings are scaled by the run's median speed factor, like
    // the end-to-end ones (set-up phases come normalised per phase).
    const double call_speed = quantile(speeds, 0.5);
    for (const MetricInfo& m : kPerLayer) {
      const auto it = report.layer.find(m.name);
      double v = it == report.layer.end() ? 0.0 : it->second;
      if ((std::strcmp(m.unit, "ms") == 0 || std::strcmp(m.unit, "us") == 0) &&
          std::strncmp(m.name, "setup.", 6) != 0) {
        v *= call_speed;
      }
      std::printf("  %-30s %14.6g %-6s %-18s %s\n", m.name, v, m.unit,
                  m.layer, m.moves);
      metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name +
                 "\": {\"value\": " + number(v) + ", \"unit\": \"" + m.unit +
                 "\"}";
    }
  }
  for (const std::string& problem : report.problems) {
    std::printf("  CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": "
      "{%s}}\n",
      report.problems.empty() ? "true" : "false", attempted, failed,
      metrics.c_str());
  return 0;
}
