// smoke_campaign: core::Runner over the smoke-tier experiments, serial
// (jobs = 1, sim_threads = 1) with metrics collection on — the only
// workload with an obs scope installed. Each experiment has a Runner of
// its own (RunnerOptions::only_names), run in the campaign's sorted order,
// so that a RepClock boundary falls between experiments; per-experiment
// seeds are forks keyed by name, so the results are the campaign's. After
// the runs the output path is driven through the public writers on the
// results: ledger append, store append, v4 JSON, report::build_reports and
// report::check_figure against the committed goldens. Every step is part
// of the timed phase.
//
// The goldens were recorded at seed 42. At that seed every drift counts.
// At any other seed values move and seed-dependent counters (hand-offs of
// a type that did or did not happen) appear or disappear, so only status
// drift counts there; the committed checksums pin the other seeds.
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/ledger.h"
#include "core/runner.h"
#include "core/store.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "report/report.h"

namespace perfbench {
namespace {

using namespace fiveg;  // NOLINT: benchmark file brevity
namespace fs = std::filesystem;

constexpr std::uint64_t kGoldenSeed = 42;
constexpr double kTimeoutS = 120.0;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

class SmokeWorkload final : public Workload {
 public:
  // The goldens are the check's expected outputs, not the program's
  // set-up: they are parsed once per run, outside every timed phase.
  explicit SmokeWorkload(Options options) : options_(std::move(options)) {
    for (const auto& entry : fs::directory_iterator(options_.golden_dir)) {
      if (entry.path().extension() != ".json") continue;
      std::ifstream f(entry.path());
      std::stringstream text;
      text << f.rdbuf();
      std::string error;
      const auto doc = obs::json_parse(text.str(), &error);
      report::GoldenFigure golden;
      if (doc == nullptr || !report::parse_golden(*doc, &golden, &error)) {
        golden_errors_.push_back(entry.path().string() + ": " + error);
        continue;
      }
      goldens_[golden.id] = std::move(golden);
    }
  }

  void setup(std::uint64_t seed, bool /*reference*/) override {
    reset();
    seed_ = seed;
    core::RunnerOptions opt;
    opt.jobs = 1;
    opt.sim_threads = 1;
    opt.seed = seed;
    opt.smoke_only = true;
    opt.collect_metrics = true;
    opt.timeout_s = kTimeoutS;
    Span s("core.runner_build");
    const std::vector<std::string> names = core::Runner(opt).selected();
    for (const std::string& name : names) {
      opt.only_names = {name};
      runners_.push_back(std::make_unique<core::Runner>(opt));
    }
    selected_ = names.size();
  }

  void run(RepClock& clock) override {
    run_s_ = 0;
    for (const auto& runner : runners_) {
      if (!summary_.results.empty()) clock.boundary();
      const auto start = Clock::now();
      core::RunSummary one;
      {
        Span s("core.runner_run");
        one = runner->run();
      }
      run_s_ += seconds_since(start);
      summary_.wall_ms += one.wall_ms;
      for (core::ExperimentResult& res : one.results) {
        summary_.results.push_back(std::move(res));
      }
    }
    clock.boundary();

    const fs::path ledger_path = fs::path(options_.work_dir) / "smoke.ledger";
    const fs::path store_path = fs::path(options_.work_dir) / "smoke.fgrs";
    fs::remove(ledger_path);
    fs::remove(store_path);
    auto start = Clock::now();
    {
      Span s("core.ledger_append");
      core::LedgerWriter ledger(ledger_path.string());
      for (const core::ExperimentResult& r : summary_.results) {
        if (!ledger.append(r)) io_errors_.push_back(ledger.error());
      }
    }
    ledger_ms_ = 1e3 * seconds_since(start);
    start = Clock::now();
    {
      Span s("core.store_append");
      core::StoreWriter store(store_path.string());
      for (const core::ExperimentResult& r : summary_.results) {
        core::StoreRecord rec;
        rec.result = r;
        if (!store.append(rec)) io_errors_.push_back(store.error());
      }
    }
    store_ms_ = 1e3 * seconds_since(start);
    start = Clock::now();
    std::string json;
    {
      Span s("core.write_json");
      std::ostringstream os;
      core::write_json(summary_, os);
      json = os.str();
    }
    json_ms_ = 1e3 * seconds_since(start);
    start = Clock::now();
    {
      Span s("report.build_reports");
      std::string error;
      const auto doc = obs::json_parse(json, &error);
      if (doc == nullptr) {
        io_errors_.push_back("v4 JSON does not parse: " + error);
      } else {
        built_ = report::build_reports(*doc);
      }
    }
    build_ms_ = 1e3 * seconds_since(start);
    start = Clock::now();
    {
      Span s("report.check_figure");
      for (const report::FigureReport& fig : built_.figures) {
        const auto it = goldens_.find(fig.id);
        if (it != goldens_.end()) {
          drifts_[fig.id] = report::check_figure(fig, it->second);
        }
      }
    }
    check_ms_ = 1e3 * seconds_since(start);
  }

  RepResult collect() override {
    RepResult r;
    for (const std::string& e : golden_errors_) r.fail("golden: " + e);
    for (const std::string& e : io_errors_) r.fail("output path: " + e);
    if (!built_.ok()) r.fail("build_reports: " + built_.error);
    if (summary_.results.empty() || summary_.results.size() != selected_) {
      r.fail("runner returned " + std::to_string(summary_.results.size()) +
             " results for " + std::to_string(selected_) + " experiments");
    }
    const bool rep_ok = r.failures.empty();

    Checksum sum;
    double profiled = 0, scheduled = 0, cancelled = 0;
    double drift_count = 0, value_drifts = 0;
    for (const core::ExperimentResult& res : summary_.results) {
      ++r.ops;
      bool ok = rep_ok;
      r.step_ms.push_back(res.wall_ms);
      if (res.status != core::RunStatus::kOk) {
        r.fail(res.name + ": status " + std::string(to_string(res.status)) +
               " " + res.error);
        ok = false;
      }
      const auto d = drifts_.find(res.name);
      if (d == drifts_.end()) {
        r.fail(res.name + ": no golden report to check");
        ok = false;
      } else {
        for (const report::Drift& drift : d->second) {
          value_drifts += 1;
          if (seed_ != kGoldenSeed &&
              drift.kind != report::Drift::Kind::kStatus) {
            continue;
          }
          drift_count += 1;
          r.fail("drift " + drift.describe());
          ok = false;
        }
      }
      if (!ok) ++r.failed_ops;

      // Simulated outputs only: event and profiler counters are internal
      // work, which an optimisation may legitimately change.
      sum.add(res.name);
      sum.add(res.seed);
      sum.add(std::string(to_string(res.status)));
      for (const core::MetricSeries& m : res.metrics) {
        sum.add(m.name);
        sum.add(m.unit);
        for (const core::MetricPoint& p : m.points) {
          sum.add(p.x);
          sum.add(p.y);
        }
      }
      for (const obs::MetricSnapshot& c : res.counters) {
        if (c.name == "sim.events") profiled += c.value;
        if (starts_with(c.name, "sim.") || starts_with(c.name, "prof.")) {
          continue;
        }
        sum.add(c.name);
        sum.add(c.value);
        sum.add(c.max);
        sum.add(c.count);
        sum.add(c.sum);
      }
      for (const obs::MetricSnapshot& c : res.profile) {
        if (c.name == obs::prof::kScheduledMetric) scheduled += c.value;
        if (c.name == obs::prof::kCancelledMetric) cancelled += c.value;
      }
    }
    r.checksum = sum.value();
    r.put("sim.events", profiled, "count");
    r.put("sim.scheduled", scheduled, "count");
    r.put("sim.cancelled", cancelled, "count");
    r.put("obs.profiled_events", profiled, "count");
    r.put("obs.ns_per_profiled_event", 1e9 * run_s_ / profiled, "ns");
    r.put("core.experiments", static_cast<double>(summary_.results.size()),
          "count");
    r.put("core.run_s", run_s_, "s");
    r.put("core.exp_ms_p50", quantile(r.step_ms, 0.5), "ms");
    r.put("core.exp_ms_max", quantile(r.step_ms, 1.0), "ms");
    r.put("core.ledger_ms", ledger_ms_, "ms");
    r.put("core.store_ms", store_ms_, "ms");
    r.put("measure.json_ms", json_ms_, "ms");
    r.put("report.build_ms", build_ms_, "ms");
    r.put("report.check_ms", check_ms_, "ms");
    r.put("report.figures", static_cast<double>(built_.figures.size()),
          "count");
    r.put("report.drifts", drift_count, "count");
    r.put("report.value_drifts", value_drifts, "count");
    reset();
    return r;
  }

  void reset() override {
    runners_.clear();
    io_errors_.clear();
    summary_ = {};
    built_ = {};
    drifts_.clear();
    selected_ = 0;
  }

 private:
  Options options_;
  std::uint64_t seed_ = 0;
  std::vector<std::unique_ptr<core::Runner>> runners_;  // one per experiment
  std::size_t selected_ = 0;
  std::map<std::string, report::GoldenFigure> goldens_;
  std::vector<std::string> golden_errors_;
  std::vector<std::string> io_errors_;
  core::RunSummary summary_;
  report::BuildResult built_;
  std::map<std::string, std::vector<report::Drift>> drifts_;
  double run_s_ = 0, ledger_ms_ = 0, store_ms_ = 0, json_ms_ = 0;
  double build_ms_ = 0, check_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_smoke_campaign(const Options& options) {
  return std::make_unique<SmokeWorkload>(options);
}

}  // namespace perfbench
