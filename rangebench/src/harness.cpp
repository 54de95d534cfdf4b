#include "harness.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <complex>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "core/combining.hpp"
#include "core/integrity.hpp"

namespace rangebench {

// ------------------------------------------------------------------ inputs

std::vector<chronos::sim::Placement> testbed_pairs(
    const chronos::sim::Scenario& scenario) {
  constexpr double kMinDistanceM = 1.0;
  constexpr double kMaxDistanceM = 15.0;
  const auto& spots = scenario.locations();
  std::vector<chronos::sim::Placement> pairs;
  for (std::size_t i = 0; i < spots.size(); ++i) {
    for (std::size_t j = i + 1; j < spots.size(); ++j) {
      chronos::sim::Placement p;
      p.tx = spots[i];
      p.rx = spots[j];
      p.line_of_sight = scenario.environment().line_of_sight(p.tx, p.rx);
      if (p.distance() >= kMinDistanceM && p.distance() <= kMaxDistanceM) {
        pairs.push_back(p);
      }
    }
  }
  return pairs;
}

std::vector<std::size_t> seeded_order(std::size_t n, chronos::mathx::Rng rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

chronos::mathx::Rng noise_stream(std::uint64_t link, std::uint64_t pass) {
  static const chronos::mathx::Rng base(0x6e6f697365ull);  // "noise"
  return base.split((link << 20) | pass);
}

// ------------------------------------------------------------------ clocks

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

namespace {
double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s(std::thread& thread) {
  clockid_t id{};
  if (pthread_getcpuclockid(thread.native_handle(), &id) != 0) return 0.0;
  return cpu_clock_s(id);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------- host speed

double reference_probe_s() {
  // The two kinds of arithmetic a range spends its time on: phasor
  // synthesis (transcendentals) and a 35 x 64 complex matrix applied
  // forward and adjoint (one FISTA iteration on a small grid). Per-thread
  // data, so concurrent callers never share cache lines.
  using cd = std::complex<double>;
  constexpr int kRows = 35, kCols = 64;
  struct Data {
    std::vector<cd> f, p, r, g;
    double sink = 0.0;
    Data() : f(kRows * kCols), p(kCols, cd(0.01, 0.02)), r(kRows), g(kCols) {
      for (std::size_t i = 0; i < f.size(); ++i) {
        f[i] = std::polar(1.0, 0.01 * static_cast<double>(i));
      }
    }
  };
  thread_local Data d;
  const double t0 = now_s();
  cd phasors = 0.0;
  for (int k = 0; k < 900; ++k) {
    phasors += std::polar(1.0 + 1e-3 * k, 0.37 * k);
  }
  d.sink += phasors.real();
  for (int rep = 0; rep < 6; ++rep) {
    for (int i = 0; i < kRows; ++i) {
      cd acc = 0.0;
      const cd* row = &d.f[static_cast<std::size_t>(i * kCols)];
      for (int j = 0; j < kCols; ++j) acc += row[j] * d.p[static_cast<std::size_t>(j)];
      d.r[static_cast<std::size_t>(i)] = acc - cd(1.0, 0.0);
    }
    std::fill(d.g.begin(), d.g.end(), cd(0.0, 0.0));
    for (int i = 0; i < kRows; ++i) {
      const cd* row = &d.f[static_cast<std::size_t>(i * kCols)];
      const cd ri = d.r[static_cast<std::size_t>(i)];
      for (int j = 0; j < kCols; ++j) d.g[static_cast<std::size_t>(j)] += std::conj(row[j]) * ri;
    }
    for (int j = 0; j < kCols; ++j) {
      auto& pj = d.p[static_cast<std::size_t>(j)];
      pj = pj * 0.999 + d.g[static_cast<std::size_t>(j)] * 1e-6;
    }
  }
  return now_s() - t0;
}

// -------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Digest::add_u64(std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    value ^= (x >> (8 * b)) & 0xFFu;
    value *= 1099511628211ull;
  }
}

void Digest::add_double(double x) { add_u64(bits_of(x)); }

// ----------------------------------------------------------------- tracing

struct Tracer::ThreadLog {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< indices of the open spans, innermost last
};

namespace {
thread_local std::shared_ptr<void> tls_log;  // owns this thread's ThreadLog
thread_local bool tls_caller = false;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadLog& Tracer::local() {
  if (!tls_log) {
    auto log = std::make_shared<ThreadLog>();
    log->spans.reserve(4096);
    Tracer& tracer = instance();
    std::lock_guard<std::mutex> lock(tracer.mu_);
    log->thread = static_cast<int>(tracer.logs_.size());
    tracer.logs_.push_back(log);
    tls_log = log;
  }
  return *static_cast<ThreadLog*>(tls_log.get());
}

bool Tracer::in_span() {
  return tls_log && !static_cast<ThreadLog*>(tls_log.get())->open.empty();
}

void Tracer::mark_caller_thread() { tls_caller = true; }
bool Tracer::is_caller_thread() { return tls_caller; }

Tracer::Scope::Scope(const char* name, std::int64_t request, bool probe,
                     std::uint64_t key) {
  if (name == nullptr || !instance().enabled()) return;
  ThreadLog& log = local();
  Span span;
  span.name = name;
  span.thread = log.thread;
  span.id = (static_cast<std::int64_t>(log.thread) << 32) |
            static_cast<std::int64_t>(log.spans.size());
  span.request = request;
  span.probe = probe;
  span.key = key;
  if (!log.open.empty()) {
    const Span& parent = log.spans[log.open.back()];
    span.parent = parent.id;
    if (span.request < 0) span.request = parent.request;
    span.probe = span.probe || parent.probe;
  }
  slot_ = static_cast<std::int64_t>(log.spans.size());
  log.open.push_back(log.spans.size());
  log.spans.push_back(std::move(span));
  start_s_ = now_s();
  log.spans.back().start_s = start_s_;
}

double Tracer::Scope::close() {
  if (slot_ < 0) return 0.0;
  const double end = now_s();
  ThreadLog& log = local();
  log.spans[static_cast<std::size_t>(slot_)].end_s = end;
  log.open.pop_back();
  slot_ = -1;
  return end - start_s_;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_s != b.start_s ? a.start_s < b.start_s : a.id < b.id;
  });
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[512];
  for (const Span& s : spans()) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"id\":%" PRId64 ",\"parent\":%" PRId64
                  ",\"request\":%" PRId64 ",\"key\":%" PRIu64
                  ",\"thread\":%d,\"probe\":%s}\n",
                  s.name.c_str(), s.start_s * 1e6, s.end_s * 1e6, s.id,
                  s.parent, s.request, s.key, s.thread,
                  s.probe ? "true" : "false");
    out << line;
  }
  return static_cast<bool>(out);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_s();
  }
  // Same-thread children nest strictly inside their parent and never
  // overlap each other, so the covered time is the sum of their durations.
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto it = index.find(s.parent);
    if (it != index.end()) self[it->second] -= s.duration_s();
  }
  return self;
}

std::vector<double> span_durations_ms(const std::vector<Span>& spans,
                                      const std::string& name,
                                      const std::string& parent) {
  std::unordered_map<std::int64_t, const Span*> by_id;
  if (!parent.empty()) {
    for (const Span& s : spans) by_id[s.id] = &s;
  }
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name != name) continue;
    if (!parent.empty()) {
      const auto it = by_id.find(s.parent);
      if (it == by_id.end() || it->second->name != parent) continue;
    }
    out.push_back(s.duration_s() * 1e3);
  }
  return out;
}

// ----------------------------------------------------------- TimedSource

bool TimedSource::has_node(chronos::NodeId id) const {
  return inner_->has_node(id);
}

chronos::Result<std::size_t> TimedSource::antenna_count(
    chronos::NodeId id) const {
  return inner_->antenna_count(id);
}

std::vector<chronos::NodeId> TimedSource::nodes() const {
  return inner_->nodes();
}

chronos::Result<chronos::core::ResolvedRequest> TimedSource::resolve(
    const chronos::RangingRequest& request) const {
  return inner_->resolve(request);
}

chronos::Result<chronos::phy::SweepMeasurement> TimedSource::sweep_for(
    const chronos::core::ResolvedRequest& req,
    chronos::mathx::Rng& rng) const {
  // Untraced calls and untraced runs pay one branch. Caller threads record
  // only inside an open span (a traced call, probe or set-up phase);
  // threads the benchmark does not own (daemon shard workers) record root
  // spans keyed by the transmitter node, matched to calls afterwards.
  if (!Tracer::instance().enabled() ||
      (Tracer::is_caller_thread() && !Tracer::in_span())) {
    return inner_->sweep_for(req, rng);
  }
  Tracer::Scope span(span_name_, -1, false,
                     chronos::core::TraceKey::of(req).tx_device);
  return inner_->sweep_for(req, rng);
}

const std::vector<chronos::phy::WifiBand>& TimedSource::bands() const {
  return inner_->bands();
}

bool TimedSource::has_geometry() const { return inner_->has_geometry(); }

std::string TimedSource::backend_name() const {
  return inner_->backend_name();
}

// ------------------------------------------------------------------- Team

Team::Team(int size) {
  threads_.reserve(static_cast<std::size_t>(size));
  for (int member = 0; member < size; ++member) {
    threads_.emplace_back([this, member] { loop(member); });
  }
}

Team::~Team() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Team::run(const std::function<void(int)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  pending_ = size();
  error_ = nullptr;
  ++generation_;
  cv_.notify_all();
  cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

void Team::loop(int member) {
  Tracer::mark_caller_thread();
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(member);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !error_) error_ = error;
    if (--pending_ == 0) cv_.notify_all();
  }
}

// ------------------------------------------------------------------ setup

void SetupLog::phase(const char* name, const std::function<void()>& fn) {
  // A set-up phase is one long stretch (up to seconds) the host's speed
  // can change under, so a sampler thread probes it every 2 ms and the
  // phase is normalised by the median sample.
  std::vector<double> probes{reference_probe_s()};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread sampler([&] {
    std::vector<double> local;
    std::unique_lock<std::mutex> lock(mu);
    while (!cv.wait_for(lock, std::chrono::milliseconds(2),
                        [&] { return done; })) {
      lock.unlock();
      local.push_back(reference_probe_s());
      lock.lock();
    }
    probes.insert(probes.end(), local.begin(), local.end());
  });
  double raw_s = 0.0;
  std::exception_ptr error;
  {
    Tracer::Scope span(name, -1);
    const double t0 = now_s();
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    raw_s = now_s() - t0;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  sampler.join();
  if (error) std::rethrow_exception(error);
  probes.push_back(reference_probe_s());
  const double norm_s = raw_s * kNominalProbeS / quantile(probes, 0.5);
  Rep& rep = reps_.back();
  rep.norm_ms[std::string(name) + "_ms"] += norm_s * 1e3;
  rep.raw_s += raw_s;
  rep.norm_s += norm_s;
}

std::map<std::string, double> SetupLog::medians_ms() const {
  std::map<std::string, std::vector<double>> samples;
  for (const Rep& rep : reps_) {
    for (const auto& [name, ms] : rep.norm_ms) samples[name].push_back(ms);
  }
  std::map<std::string, double> out;
  for (const auto& [name, values] : samples) out[name] = quantile(values, 0.5);
  return out;
}

double SetupLog::speed() const {
  const Rep& rep = reps_.back();
  return rep.raw_s > 0.0 ? rep.norm_s / rep.raw_s : 1.0;
}

RequestSpans spans_by_request(const std::vector<Span>& spans) {
  RequestSpans out;
  for (const Span& s : spans) {
    if (s.request < 0) continue;
    const std::string key = s.probe ? s.name + "@probe" : s.name;
    out[s.request][key] += s.duration_s() * 1e3;
  }
  return out;
}

StageReplay replay_stages(const chronos::core::RangingPipeline& pipeline,
                          std::span<const chronos::phy::WifiBand> plan,
                          const chronos::core::CalibrationTable& calibration,
                          std::span<const chronos::phy::SweepMeasurement> sweeps) {
  namespace core = chronos::core;
  const core::RangingConfig& cfg = pipeline.config();
  StageReplay out;
  std::vector<std::vector<std::complex<double>>> hs;
  for (const auto& sweep : sweeps) {
    {
      Tracer::Scope span("integrity.screen", -1);
      out.screens_ok =
          core::screen_sweep(sweep, plan, cfg.integrity).ok() && out.screens_ok;
    }
    Tracer::Scope span("combine", -1);
    const auto combined = core::combine_sweep(sweep, cfg.combining, calibration);
    std::vector<std::complex<double>> raw;
    raw.reserve(combined.size());
    for (const auto& band : combined) raw.push_back(band.value);
    hs.push_back(pipeline.solver().apply_weights(raw));
  }

  if (sweeps.size() == 1) {
    {
      Tracer::Scope span("ndft.solve", -1);
      out.iterations.push_back(
          pipeline.solver().solve_fista(hs[0], cfg.solver_options).iterations);
    }
    Tracer::Scope span("ranging.estimate", -1, false, 1);
    out.estimates.push_back(pipeline.estimate(sweeps[0], calibration));
    return out;
  }
  for (std::size_t lo = 0; lo < sweeps.size(); lo += kPanelWidth) {
    const std::size_t n = std::min(kPanelWidth, sweeps.size() - lo);
    std::vector<std::span<const std::complex<double>>> panel(
        hs.begin() + static_cast<std::ptrdiff_t>(lo),
        hs.begin() + static_cast<std::ptrdiff_t>(lo + n));
    {
      Tracer::Scope span("ndft.panel", -1, false, n);
      for (const auto& solution :
           pipeline.solver().solve_fista_batch(panel, cfg.solver_options)) {
        out.iterations.push_back(solution.iterations);
      }
    }
    Tracer::Scope span("ranging.estimate", -1, false, n);
    for (auto& estimate :
         pipeline.estimate_batch(sweeps.subspan(lo, n), calibration)) {
      out.estimates.push_back(std::move(estimate));
    }
  }
  return out;
}

void report_overhead(int probe_mismatches, Report& report) {
  // Traced calls against the untraced copies of the same slots.
  std::map<std::uint64_t, double> plain_ms;
  for (const CallSample& c : report.calls) {
    if (!c.traced) plain_ms[c.index] = (c.end_s - c.start_s) * c.speed * 1e3;
  }
  std::vector<double> traced, untraced;
  for (const CallSample& c : report.calls) {
    const auto it = plain_ms.find(c.index);
    if (!c.traced || it == plain_ms.end()) continue;
    traced.push_back((c.end_s - c.start_s) * c.speed * 1e3);
    untraced.push_back(it->second);
  }
  const double base = quantile(untraced, 0.5);
  const double with = quantile(traced, 0.5);
  report.layer["trace.overhead_pct"] =
      base > 0 ? 100.0 * (with - base) / base : 0.0;
  report.layer["probe.mismatches"] = probe_mismatches;
  char line[256];
  std::snprintf(line, sizeof line,
                "tracing overhead: traced call p50 %.4f ms (n=%zu) vs "
                "untraced %.4f ms (n=%zu) on the same inputs; probe spans "
                "excluded",
                with, traced.size(), base, untraced.size());
  report.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "probe self-check: %d of %zu traced calls disagree with "
                "their re-executed stages",
                probe_mismatches, traced.size());
  report.notes.push_back(line);
}

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// ----------------------------------------------------------------- digest

namespace {
/// Identity of the running binary: a rebuilt program may legitimately
/// produce other bits, so digests are only compared within one build.
std::string build_id() {
  struct stat st {};
  if (stat("/proc/self/exe", &st) != 0) return "unknown";
  std::ostringstream id;
  id << st.st_size << '-' << st.st_mtim.tv_sec << '.' << st.st_mtim.tv_nsec;
  return id.str();
}
}  // namespace

void check_digest(const RunConfig& config, const Digest& digest,
                  std::uint64_t calls, Report& report) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest.value);
  const std::string path = config.out_dir + "/digest-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".txt";
  const std::string id = build_id();
  const std::string want = id + " " + std::to_string(calls);
  {
    std::ifstream in(path);
    std::string stored_id, stored_calls, stored_hex;
    if (in >> stored_id >> stored_calls >> stored_hex &&
        stored_id + " " + stored_calls == want) {
      report.notes.push_back("digest of the first " + std::to_string(calls) +
                             " calls: " + hex + " (stored: " + stored_hex +
                             ")");
      if (stored_hex != hex) {
        report.problems.push_back(
            "ToF digest differs from an earlier run of this build and seed");
      }
      return;
    }
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << want << ' ' << hex << '\n';
  }
  std::rename(tmp.c_str(), path.c_str());
  report.notes.push_back("digest of the first " + std::to_string(calls) +
                         " calls: " + hex + " (first run of this seed)");
}

}  // namespace rangebench
