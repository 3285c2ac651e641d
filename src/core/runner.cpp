#include "core/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "core/store.h"
#include "fault/fault.h"
#include "measure/json.h"
#include "obs/chrome_trace.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "sim/rng.h"

namespace fiveg::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The heartbeat period of RunnerOptions::progress.
constexpr std::chrono::seconds kProgressPeriod{2};

// A per-experiment cap as a clock duration, or nullopt for "no limit":
// 0 (or any non-positive or NaN value) means no limit, and so does a cap
// too large for the clock to represent — waiting that long would overflow
// the wait's deadline and time the run out at once instead.
std::optional<Clock::duration> timeout_duration(double timeout_s) {
  const std::chrono::duration<double> headroom =
      Clock::time_point::max() - Clock::now();
  if (!(timeout_s > 0 && timeout_s < 0.5 * headroom.count())) {
    return std::nullopt;
  }
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(timeout_s));
}

// Shared between the worker and the (possibly abandoned) experiment thread.
// On timeout the worker walks away and the thread keeps writing here until
// the experiment returns; the shared_ptr keeps the state alive for it.
struct ExecState {
  std::ostringstream out;
  ExperimentResult result;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

// Observability settings copied out of RunnerOptions: the experiment may
// run on a detached thread that outlives the Runner, so it must not hold a
// reference back into it.
struct ExecOptions {
  bool collect_metrics = true;
  bool trace = false;
  std::size_t trace_capacity = 0;
  std::shared_ptr<const fault::FaultPlan> faults;
  int sim_threads = 1;
};

// Inter/intra parallelism split. An explicit --sim-threads value is
// honored as given (capped sanely): the caller asked for that many lane
// workers per experiment and output never depends on the count. Auto
// (<= 0) divides the machine between the two axes — each of the `jobs`
// concurrent experiments gets max(1, hw / jobs) lane workers, so
// `--jobs 0 --sim-threads 0` saturates without oversubscribing.
int split_sim_threads(const RunnerOptions& opt) {
  if (opt.sim_threads > 0) return std::min(opt.sim_threads, 64);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 1;
  const int jobs = std::max(opt.jobs <= 0 ? hw : opt.jobs, 1);
  return std::max(1, hw / jobs);
}

// Runs the experiment body, capturing text, metrics and exceptions. The
// obs scope is installed here — on the thread the body actually runs on —
// so every Simulator and protocol object the experiment builds picks up
// this experiment's private registry/tracer.
void execute(Experiment& exp, std::uint64_t seed, ExecState& state,
             ExecOptions obs_opt) {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<obs::Tracer> tracer;
  if (obs_opt.collect_metrics) {
    registry = std::make_unique<obs::MetricsRegistry>();
  }
  if (obs_opt.trace) {
    tracer = std::make_shared<obs::Tracer>(
        obs_opt.trace_capacity != 0 ? obs_opt.trace_capacity
                                    : obs::Tracer::kDefaultCapacity);
  }
  const obs::ScopedObs scope(tracer.get(), registry.get());

  // Fault injection: install the runtime before the experiment body runs,
  // so every Simulator (which arms the plan at construction) and every
  // injection point (which caches the runtime handle at construction) sees
  // it. The fault seed is a named fork of the experiment seed — fault
  // randomness never perturbs the experiment's own streams.
  std::unique_ptr<fault::Runtime> fault_runtime;
  std::optional<fault::ScopedFaults> fault_scope;
  if (obs_opt.faults != nullptr && !obs_opt.faults->empty()) {
    fault_runtime = std::make_unique<fault::Runtime>(
        obs_opt.faults.get(), sim::Rng(seed).fork("fault").seed());
    fault_scope.emplace(fault_runtime.get());
  }

  ExperimentContext ctx;
  ctx.seed = seed;
  ctx.out = &state.out;
  ctx.result = &state.result;
  ctx.sim_threads = obs_opt.sim_threads;
  try {
    print_banner(exp, seed, state.out);
    exp.run(ctx);
    state.result.status = RunStatus::kOk;
  } catch (const std::exception& e) {
    state.result.status = RunStatus::kFailed;
    state.result.error = e.what();
  } catch (...) {
    state.result.status = RunStatus::kFailed;
    state.result.error = "unknown exception";
  }
  if (registry != nullptr) {
    // Sample memory at body completion so the profile object carries it.
    // Process-wide (see prof.h), like wall clocks elsewhere: kWall only.
    registry->gauge(obs::prof::kPeakRssMetric, obs::MetricClock::kWall)
        .set(static_cast<double>(obs::prof::peak_rss_kb()));
    state.result.counters = registry->snapshot(obs::MetricClock::kSim);
    state.result.profile = registry->snapshot(obs::MetricClock::kWall);
  }
  state.result.peak_rss_kb = obs::prof::peak_rss_kb();
  state.result.trace = std::move(tracer);
}

}  // namespace

int RunSummary::count(RunStatus status) const {
  int n = 0;
  for (const ExperimentResult& r : results) n += (r.status == status);
  return n;
}

bool RunSummary::all_ok() const {
  return count(RunStatus::kOk) == static_cast<int>(results.size());
}

Runner::Runner(RunnerOptions opt, ExperimentRegistry* registry)
    : opt_(std::move(opt)),
      registry_(registry != nullptr ? registry
                                    : &ExperimentRegistry::instance()) {}

std::uint64_t Runner::fork_seed(std::uint64_t base_seed,
                                std::string_view name) {
  return sim::Rng(base_seed).fork(name).seed();
}

std::vector<std::string> Runner::selected() const {
  const std::set<std::string> only(opt_.only_names.begin(),
                                   opt_.only_names.end());
  std::vector<std::string> out;
  for (const std::string& name : registry_->names()) {
    if (!only.empty() && only.count(name) == 0) continue;
    if (!opt_.filter.empty() &&
        name.find(opt_.filter) == std::string::npos) {
      continue;
    }
    if (opt_.smoke_only && !registry_->create(name)->smoke()) continue;
    out.push_back(name);
  }
  return out;  // names() is already sorted
}

ExperimentResult Runner::run_one(const std::string& name) const {
  auto exp = registry_->create(name);
  auto state = std::make_shared<ExecState>();
  ExperimentResult& res = state->result;
  res.name = name;
  res.paper_ref = exp->paper_ref();
  res.description = exp->description();
  res.seed = fork_seed(opt_.seed, name);

  const ExecOptions obs_opt{opt_.collect_metrics, opt_.trace,
                            opt_.trace_capacity, opt_.faults,
                            split_sim_threads(opt_)};
  const auto start = Clock::now();
  const std::optional<Clock::duration> timeout =
      timeout_duration(opt_.timeout_s);
  if (!timeout) {
    execute(*exp, res.seed, *state, obs_opt);
    res.wall_ms = ms_since(start);
    res.text = state->out.str();
    return std::move(res);
  }

  // Run the body on its own thread so a hang can be abandoned. The thread
  // owns the experiment and a reference to the shared state; after a
  // timeout nobody reads that state again.
  std::shared_ptr<Experiment> owned = std::move(exp);
  std::thread worker([owned, state, seed = res.seed, obs_opt] {
    execute(*owned, seed, *state, obs_opt);
    const std::lock_guard<std::mutex> lock(state->mu);
    state->done = true;
    state->cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(state->mu);
  const bool finished =
      state->cv.wait_for(lock, *timeout, [&] { return state->done; });
  if (finished) {
    lock.unlock();
    worker.join();
    res.wall_ms = ms_since(start);
    res.text = state->out.str();
    return std::move(res);
  }

  // Abandon the hung experiment: report a timeout result assembled from
  // metadata only (the state buffers are still being written to).
  lock.unlock();
  worker.detach();
  ExperimentResult timed_out;
  timed_out.name = res.name;
  timed_out.paper_ref = res.paper_ref;
  timed_out.description = res.description;
  timed_out.seed = res.seed;
  timed_out.status = RunStatus::kTimedOut;
  {
    std::ostringstream msg;
    msg << "exceeded per-experiment timeout of " << opt_.timeout_s << " s";
    timed_out.error = msg.str();
  }
  timed_out.wall_ms = ms_since(start);
  timed_out.peak_rss_kb = obs::prof::peak_rss_kb();
  return timed_out;
}

namespace {

// Shared progress accounting for the heartbeat thread. Completed wall
// times feed the ETA; the resume set's recorded timings seed it so the
// very first heartbeat of a resumed campaign already has history.
struct Progress {
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::uint64_t> wall_ms_sum{0};
  std::atomic<std::size_t> wall_samples{0};

  void record(const ExperimentResult& r) {
    wall_ms_sum.fetch_add(static_cast<std::uint64_t>(r.wall_ms));
    wall_samples.fetch_add(1);
    if (r.status != RunStatus::kOk) failed.fetch_add(1);
    done.fetch_add(1);
  }
};

// One stderr heartbeat line. stderr only, so stdout (text/JSON artifacts)
// stays byte-identical whether or not telemetry is on.
void print_heartbeat(const Progress& progress, std::size_t total, int jobs,
                     std::ostream& os) {
  const std::size_t done = progress.done.load();
  const std::size_t started = progress.started.load();
  const std::size_t failed = progress.failed.load();
  const std::size_t running = started > done ? started - done : 0;
  os << "fiveg_runall: " << done << "/" << total << " done";
  if (failed > 0) os << " (" << failed << " failed)";
  os << ", " << running << " running";
  const std::size_t samples = progress.wall_samples.load();
  if (samples > 0 && done < total) {
    const double mean_ms =
        static_cast<double>(progress.wall_ms_sum.load()) /
        static_cast<double>(samples);
    const double eta_s = mean_ms * static_cast<double>(total - done) /
                         (1000.0 * static_cast<double>(jobs));
    os << ", ETA " << static_cast<std::int64_t>(eta_s + 0.5) << "s";
  }
  os << "\n";
}

}  // namespace

RunSummary Runner::run() const {
  const std::vector<std::string> names = selected();
  RunSummary summary;
  summary.results.resize(names.size());

  int jobs = opt_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = std::min<int>(jobs, static_cast<int>(names.size()));
  jobs = std::max(jobs, 1);

  Progress progress;
  if (opt_.resume != nullptr) {
    // Seed the ETA with the resumed runs' recorded wall clocks.
    for (const auto& [name, r] : *opt_.resume) {
      (void)name;
      progress.wall_ms_sum.fetch_add(static_cast<std::uint64_t>(r.wall_ms));
      progress.wall_samples.fetch_add(1);
    }
  }

  const auto start = Clock::now();
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= names.size()) return;
      // Resume splice: a stored record at the right seed stands in for the
      // run verbatim (and is not re-appended — it is already on disk).
      if (opt_.resume != nullptr) {
        const auto it = opt_.resume->find(names[i]);
        if (it != opt_.resume->end()) {
          summary.results[i] = it->second;
          progress.started.fetch_add(1);
          progress.done.fetch_add(1);
          continue;
        }
      }
      progress.started.fetch_add(1);
      summary.results[i] = run_one(names[i]);
      if (opt_.store != nullptr) {
        opt_.store->append({summary.results[i], opt_.store_labels});
      }
      progress.record(summary.results[i]);
    }
  };

  // Heartbeat: a plain thread ticking on a condition variable so shutdown
  // is immediate (no sleep to drain) once the pool finishes.
  std::thread heartbeat;
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  bool hb_stop = false;
  if (opt_.progress && !names.empty()) {
    heartbeat = std::thread([&] {
      std::unique_lock<std::mutex> lock(hb_mu);
      for (;;) {
        if (hb_cv.wait_for(lock, kProgressPeriod, [&] { return hb_stop; })) {
          return;
        }
        print_heartbeat(progress, names.size(), jobs, std::cerr);
      }
    });
  }

  if (jobs == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) pool.emplace_back(drain);
    for (std::thread& t : pool) t.join();
  }

  if (heartbeat.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
    print_heartbeat(progress, names.size(), jobs, std::cerr);
  }
  summary.wall_ms = ms_since(start);
  return summary;
}

void write_text(const RunSummary& summary, std::ostream& os) {
  for (const ExperimentResult& r : summary.results) {
    if (r.status == RunStatus::kOk) {
      os << r.text;
    } else {
      os << "### " << r.name << " — " << to_string(r.status) << ": "
         << r.error << "\n\n";
    }
  }
  os << summary.results.size() << " experiments: "
     << summary.count(RunStatus::kOk) << " ok, "
     << summary.count(RunStatus::kFailed) << " failed, "
     << summary.count(RunStatus::kTimedOut) << " timed out\n";
}

namespace {

// Expands one metric snapshot vector into a flat JSON object. Snapshots
// arrive sorted by (name, kind), so the member order is deterministic.
void write_snapshot_object(measure::JsonWriter& w,
                           const std::vector<obs::MetricSnapshot>& snaps) {
  w.begin_object();
  for (const obs::MetricSnapshot& s : snaps) {
    switch (s.kind) {
      case obs::MetricSnapshot::Kind::kCounter:
        w.kv(s.name, static_cast<std::uint64_t>(s.value));
        break;
      case obs::MetricSnapshot::Kind::kGauge:
        w.kv(s.name, s.value);
        w.kv(s.name + ".max", s.max);
        break;
      case obs::MetricSnapshot::Kind::kHistogram:
        w.kv(s.name + ".count", s.count);
        w.kv(s.name + ".sum", s.sum);
        w.kv(s.name + ".min", s.min);
        w.kv(s.name + ".max", s.max);
        w.kv(s.name + ".mean", s.value);
        w.kv(s.name + ".p50", s.p50);
        w.kv(s.name + ".p99", s.p99);
        break;
      case obs::MetricSnapshot::Kind::kDigest:
        w.kv(s.name + ".count", s.count);
        w.kv(s.name + ".mean", s.value);
        w.kv(s.name + ".min", s.min);
        w.kv(s.name + ".max", s.max);
        w.kv(s.name + ".p05", s.p05);
        w.kv(s.name + ".p25", s.p25);
        w.kv(s.name + ".p50", s.p50);
        w.kv(s.name + ".p75", s.p75);
        w.kv(s.name + ".p90", s.p90);
        w.kv(s.name + ".p95", s.p95);
        w.kv(s.name + ".p99", s.p99);
        break;
    }
  }
  w.end_object();
}

void write_bins_array(
    measure::JsonWriter& w,
    const std::vector<std::pair<std::int32_t, std::uint64_t>>& bins) {
  w.begin_array();
  for (const auto& [key, count] : bins) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(key));
    w.value(count);
    w.end_array();
  }
  w.end_array();
}

// The v3 additions: full bucket payloads per histogram/digest, so external
// consumers (fiveg_report, notebooks) can rebuild distributions instead of
// settling for the flat percentile keys.
void write_histograms_object(measure::JsonWriter& w,
                             const std::vector<obs::MetricSnapshot>& snaps) {
  w.begin_object();
  for (const obs::MetricSnapshot& s : snaps) {
    if (s.kind != obs::MetricSnapshot::Kind::kHistogram) continue;
    w.key(s.name);
    w.begin_object();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.key("log2_buckets");
    write_bins_array(w, s.bins);
    w.end_object();
  }
  w.end_object();
}

void write_digests_object(measure::JsonWriter& w,
                          const std::vector<obs::MetricSnapshot>& snaps) {
  w.begin_object();
  for (const obs::MetricSnapshot& s : snaps) {
    if (s.kind != obs::MetricSnapshot::Kind::kDigest) continue;
    w.key(s.name);
    w.begin_object();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.kv("zero", s.zero_count);
    w.key("bins");
    write_bins_array(w, s.bins);
    w.key("neg_bins");
    write_bins_array(w, s.neg_bins);
    w.end_object();
  }
  w.end_object();
}

bool has_kind(const std::vector<obs::MetricSnapshot>& snaps,
              obs::MetricSnapshot::Kind kind) {
  for (const obs::MetricSnapshot& s : snaps) {
    if (s.kind == kind) return true;
  }
  return false;
}

}  // namespace

void write_json(const RunSummary& summary, std::ostream& os,
                bool include_timing) {
  measure::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "fiveg-runall/v4");
  w.key("experiments");
  w.begin_array();
  for (const ExperimentResult& r : summary.results) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("paper_ref", r.paper_ref);
    w.kv("description", r.description);
    w.kv("seed", r.seed);
    w.kv("status", to_string(r.status));
    if (r.status != RunStatus::kOk) w.kv("error", r.error);
    if (include_timing) {
      w.kv("wall_ms", r.wall_ms);
      w.kv("peak_rss_kb", r.peak_rss_kb);
    }
    w.key("metrics");
    w.begin_array();
    for (const MetricSeries& s : r.metrics) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("unit", s.unit);
      w.key("points");
      w.begin_array();
      for (const MetricPoint& p : s.points) {
        w.begin_array();
        w.value(p.x);
        w.value(p.y);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("counters");
    write_snapshot_object(w, r.counters);
    if (has_kind(r.counters, obs::MetricSnapshot::Kind::kHistogram)) {
      w.key("histograms");
      write_histograms_object(w, r.counters);
    }
    if (has_kind(r.counters, obs::MetricSnapshot::Kind::kDigest)) {
      w.key("digests");
      write_digests_object(w, r.counters);
    }
    if (include_timing && !r.profile.empty()) {
      w.key("profile");
      write_snapshot_object(w, r.profile);
    }
    w.kv("text", r.text);
    w.end_object();
  }
  w.end_array();
  w.key("summary");
  w.begin_object();
  w.kv("total", static_cast<std::int64_t>(summary.results.size()));
  w.kv("ok", summary.count(RunStatus::kOk));
  w.kv("failed", summary.count(RunStatus::kFailed));
  w.kv("timed_out", summary.count(RunStatus::kTimedOut));
  if (include_timing) {
    w.kv("wall_ms", summary.wall_ms);
    std::uint64_t peak = 0;
    for (const ExperimentResult& r : summary.results) {
      peak = std::max(peak, r.peak_rss_kb);
    }
    w.kv("peak_rss_kb", peak);
  }
  w.end_object();
  w.end_object();
  os << "\n";
}

void write_timing(const RunSummary& summary, std::ostream& os) {
  std::vector<const ExperimentResult*> by_time;
  by_time.reserve(summary.results.size());
  for (const ExperimentResult& r : summary.results) by_time.push_back(&r);
  std::sort(by_time.begin(), by_time.end(),
            [](const ExperimentResult* a, const ExperimentResult* b) {
              return a->wall_ms > b->wall_ms;
            });
  for (const ExperimentResult* r : by_time) {
    os << "  " << to_string(r->status) << "  "
       << static_cast<std::int64_t>(r->wall_ms) << " ms  " << r->name
       << "\n";
  }
  os << "total " << static_cast<std::int64_t>(summary.wall_ms) << " ms\n";
}

namespace {

void write_snapshot_lines(const std::vector<obs::MetricSnapshot>& snaps,
                          std::ostream& os) {
  for (const obs::MetricSnapshot& s : snaps) {
    os << "    " << s.name;
    switch (s.kind) {
      case obs::MetricSnapshot::Kind::kCounter:
        os << " = " << measure::JsonWriter::number(s.value);
        break;
      case obs::MetricSnapshot::Kind::kGauge:
        os << " = " << measure::JsonWriter::number(s.value)
           << " (max " << measure::JsonWriter::number(s.max) << ")";
        break;
      case obs::MetricSnapshot::Kind::kHistogram:
        os << ": count=" << s.count << " mean="
           << measure::JsonWriter::number(s.value)
           << " p50=" << measure::JsonWriter::number(s.p50)
           << " p99=" << measure::JsonWriter::number(s.p99)
           << " max=" << measure::JsonWriter::number(s.max);
        break;
      case obs::MetricSnapshot::Kind::kDigest:
        os << ": count=" << s.count << " mean="
           << measure::JsonWriter::number(s.value)
           << " p05=" << measure::JsonWriter::number(s.p05)
           << " p50=" << measure::JsonWriter::number(s.p50)
           << " p95=" << measure::JsonWriter::number(s.p95)
           << " p99=" << measure::JsonWriter::number(s.p99);
        break;
    }
    os << "\n";
  }
}

}  // namespace

void write_metrics(const RunSummary& summary, std::ostream& os,
                   bool include_timing) {
  for (const ExperimentResult& r : summary.results) {
    if (r.counters.empty() && (!include_timing || r.profile.empty())) {
      continue;
    }
    os << "### " << r.name << "\n";
    write_snapshot_lines(r.counters, os);
    if (include_timing && !r.profile.empty()) {
      os << "  profile (wall clock):\n";
      write_snapshot_lines(r.profile, os);
    }
    os << "\n";
  }
}

void write_chrome_trace(const RunSummary& summary, std::ostream& os,
                        bool include_wall) {
  std::vector<obs::ChromeProcess> processes;
  processes.reserve(summary.results.size());
  for (const ExperimentResult& r : summary.results) {
    if (r.trace == nullptr) continue;
    obs::ChromeProcess p;
    p.name = r.name;
    p.tracer = r.trace.get();
    p.wall_ms = r.wall_ms;
    processes.push_back(std::move(p));
  }
  obs::ChromeTraceOptions options;
  options.include_wall = include_wall;
  obs::write_chrome_trace(processes, os, options);
}

}  // namespace fiveg::core
