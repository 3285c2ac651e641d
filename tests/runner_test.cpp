// Tests for the parallel campaign runner: parallel/serial byte-identity,
// deterministic seed forking, timeout abandonment, failure capture and
// resuming a campaign from its result store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/runner.h"
#include "core/store.h"
#include "obs/json_check.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/rng.h"

namespace fiveg::core {
namespace {

// A deterministic synthetic experiment: draws from the forked seed, prints
// a small table and records metrics. `index` varies the name/work.
class FakeExperiment final : public Experiment {
 public:
  explicit FakeExperiment(int index) : index_(index) {}

  std::string name() const override {
    return "fake_" + std::to_string(index_);
  }
  std::string paper_ref() const override { return "Figure 0"; }
  std::string description() const override { return "synthetic workload"; }
  bool smoke() const override { return true; }

  void run(const ExperimentContext& ctx) override {
    sim::Rng rng = sim::Rng(ctx.seed).fork("fake");
    double acc = 0;
    for (int i = 0; i < 1000 + 100 * index_; ++i) acc += rng.uniform(0, 1);
    *ctx.out << "fake table " << index_ << ": acc=" << acc
             << " seed=" << ctx.seed << "\n\n";
    ctx.metric("acc", acc, "units");
    ctx.metric_point("sweep", index_, acc / 2);
    // Exercise the runner-installed obs scope like a real experiment would.
    if (auto* m = obs::metrics()) m->counter("fake.runs").add();
    if (auto* t = obs::tracer()) {
      t->instant(1000 * index_, "fake.tick", "sim");
    }
  }

 private:
  int index_;
};

class ThrowingExperiment final : public Experiment {
 public:
  std::string name() const override { return "always_throws"; }
  std::string paper_ref() const override { return "n/a"; }
  std::string description() const override { return "throws"; }
  void run(const ExperimentContext&) override {
    throw std::runtime_error("deliberate failure");
  }
};

class HangingExperiment final : public Experiment {
 public:
  std::string name() const override { return "hangs"; }
  std::string paper_ref() const override { return "n/a"; }
  std::string description() const override { return "sleeps past timeout"; }
  void run(const ExperimentContext&) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
};

ExperimentRegistry make_fake_registry(int n) {
  ExperimentRegistry reg;
  for (int i = 0; i < n; ++i) {
    reg.add([i] { return std::make_unique<FakeExperiment>(i); });
  }
  return reg;
}

TEST(RunnerTest, ParallelIsByteIdenticalToSerial) {
  ExperimentRegistry reg = make_fake_registry(12);
  RunnerOptions serial;
  serial.jobs = 1;
  serial.seed = 42;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;

  const RunSummary a = Runner(serial, &reg).run();
  const RunSummary b = Runner(parallel, &reg).run();

  std::ostringstream text_a, text_b, json_a, json_b;
  write_text(a, text_a);
  write_text(b, text_b);
  write_json(a, json_a, /*include_timing=*/false);
  write_json(b, json_b, /*include_timing=*/false);
  EXPECT_EQ(text_a.str(), text_b.str());
  EXPECT_EQ(json_a.str(), json_b.str());
  EXPECT_TRUE(a.all_ok());
}

TEST(RunnerTest, ForkSeedMatchesRngForkSemantics) {
  EXPECT_EQ(Runner::fork_seed(42, "fig7_throughput"),
            sim::Rng(42).fork("fig7_throughput").seed());
  // Stable across calls, distinct across names and base seeds.
  EXPECT_EQ(Runner::fork_seed(42, "a"), Runner::fork_seed(42, "a"));
  EXPECT_NE(Runner::fork_seed(42, "a"), Runner::fork_seed(42, "b"));
  EXPECT_NE(Runner::fork_seed(42, "a"), Runner::fork_seed(43, "a"));
}

TEST(RunnerTest, EachExperimentRunsOnItsOwnForkedSeed) {
  ExperimentRegistry reg = make_fake_registry(3);
  RunnerOptions opt;
  opt.seed = 7;
  const RunSummary s = Runner(opt, &reg).run();
  ASSERT_EQ(s.results.size(), 3u);
  for (const ExperimentResult& r : s.results) {
    EXPECT_EQ(r.seed, Runner::fork_seed(7, r.name));
  }
  EXPECT_NE(s.results[0].seed, s.results[1].seed);
}

TEST(RunnerTest, ResultsAreSortedByNameAndCarryMetrics) {
  ExperimentRegistry reg = make_fake_registry(11);
  RunnerOptions opt;
  opt.jobs = 4;
  const RunSummary s = Runner(opt, &reg).run();
  ASSERT_EQ(s.results.size(), 11u);
  for (std::size_t i = 1; i < s.results.size(); ++i) {
    EXPECT_LT(s.results[i - 1].name, s.results[i].name);
  }
  const ExperimentResult& r = s.results.front();
  ASSERT_EQ(r.metrics.size(), 2u);
  EXPECT_EQ(r.metrics[0].name, "acc");
  EXPECT_EQ(r.metrics[0].unit, "units");
  ASSERT_EQ(r.metrics[0].points.size(), 1u);
  EXPECT_GT(r.metrics[0].points[0].y, 0);
  EXPECT_EQ(r.metrics[1].name, "sweep");
  EXPECT_NE(r.text.find("fake table"), std::string::npos);
}

TEST(RunnerTest, FilterSelectsSubstring) {
  ExperimentRegistry reg = make_fake_registry(12);
  RunnerOptions opt;
  opt.filter = "fake_1";  // fake_1, fake_10, fake_11
  EXPECT_EQ(Runner(opt, &reg).selected().size(), 3u);
}

TEST(RunnerTest, ThrowingExperimentIsReportedNotFatal) {
  ExperimentRegistry reg = make_fake_registry(2);
  reg.add([] { return std::make_unique<ThrowingExperiment>(); });
  const RunSummary s = Runner(RunnerOptions{}, &reg).run();
  ASSERT_EQ(s.results.size(), 3u);
  EXPECT_EQ(s.count(RunStatus::kFailed), 1);
  EXPECT_EQ(s.count(RunStatus::kOk), 2);
  EXPECT_FALSE(s.all_ok());
  EXPECT_EQ(s.results.front().name, "always_throws");
  EXPECT_EQ(s.results.front().error, "deliberate failure");
  std::ostringstream os;
  write_text(s, os);
  EXPECT_NE(os.str().find("always_throws — failed: deliberate failure"),
            std::string::npos);
  EXPECT_NE(os.str().find("3 experiments: 2 ok, 1 failed, 0 timed out"),
            std::string::npos);
}

TEST(RunnerTest, HungExperimentTimesOutGracefully) {
  ExperimentRegistry reg = make_fake_registry(1);
  reg.add([] { return std::make_unique<HangingExperiment>(); });
  RunnerOptions opt;
  opt.timeout_s = 0.05;
  const auto start = std::chrono::steady_clock::now();
  const RunSummary s = Runner(opt, &reg).run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(450));  // not the full sleep
  EXPECT_EQ(s.count(RunStatus::kTimedOut), 1);
  EXPECT_EQ(s.count(RunStatus::kOk), 1);  // the fast sibling still runs
  const ExperimentResult* hung = nullptr;
  for (const ExperimentResult& r : s.results) {
    if (r.name == "hangs") hung = &r;
  }
  ASSERT_NE(hung, nullptr);
  EXPECT_EQ(hung->status, RunStatus::kTimedOut);
  EXPECT_NE(hung->error.find("timeout"), std::string::npos);
  // Give the abandoned thread time to drain before the test exits.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
}

TEST(RunnerTest, TimeoutBeyondClockRangeMeansNoLimit) {
  // 1e10 s does not fit the steady clock's nanosecond range: waiting on it
  // must not overflow into an instant timeout. The run completes.
  ExperimentRegistry reg;
  reg.add([] { return std::make_unique<HangingExperiment>(); });
  RunnerOptions opt;
  opt.timeout_s = 1e10;
  const RunSummary s = Runner(opt, &reg).run();
  ASSERT_EQ(s.results.size(), 1u);
  EXPECT_EQ(s.results[0].status, RunStatus::kOk) << s.results[0].error;
}

TEST(RunnerTest, SmokeTierOfRealRegistryIsNonEmpty) {
  RunnerOptions opt;
  opt.smoke_only = true;
  const Runner runner(opt);  // global registry
  const auto smoke = runner.selected();
  EXPECT_GE(smoke.size(), 5u);
  // The smoke tier is a strict subset of the full registry.
  RunnerOptions all;
  EXPECT_LT(smoke.size(), Runner(all).selected().size());
}

TEST(RunnerTest, JsonOutputIsWellFormedScaffold) {
  ExperimentRegistry reg = make_fake_registry(2);
  const RunSummary s = Runner(RunnerOptions{}, &reg).run();
  std::ostringstream os;
  write_json(s, os, /*include_timing=*/true);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"schema\": \"fiveg-runall/v4\""), std::string::npos);
  EXPECT_NE(j.find("\"experiments\""), std::string::npos);
  EXPECT_NE(j.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(j.find("\"summary\""), std::string::npos);
  // The v2 delta: a flat counters object per experiment.
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"fake.runs\": 1"), std::string::npos);
  // The v4 delta: per-run and summary peak RSS (timing-gated).
  EXPECT_NE(j.find("\"peak_rss_kb\""), std::string::npos);
  // Timing off really drops the non-deterministic fields — wall_ms,
  // peak_rss_kb AND the kWall profile object.
  std::ostringstream os2;
  write_json(s, os2, /*include_timing=*/false);
  EXPECT_EQ(os2.str().find("wall_ms"), std::string::npos);
  EXPECT_EQ(os2.str().find("peak_rss_kb"), std::string::npos);
  EXPECT_EQ(os2.str().find("\"profile\""), std::string::npos);
}

TEST(RunnerTest, CapturesCountersAndOptionalTrace) {
  ExperimentRegistry reg = make_fake_registry(2);
  RunnerOptions opt;
  opt.trace = true;
  opt.trace_capacity = 64;
  const RunSummary s = Runner(opt, &reg).run();
  ASSERT_EQ(s.results.size(), 2u);
  for (const ExperimentResult& r : s.results) {
    ASSERT_NE(r.trace, nullptr);
    EXPECT_EQ(r.trace->emitted(), 1u);
    bool saw = false;
    for (const obs::MetricSnapshot& m : r.counters) {
      saw |= (m.name == "fake.runs" && m.value == 1.0);
    }
    EXPECT_TRUE(saw);
  }

  // Tracing off: no tracer is allocated at all.
  RunnerOptions plain;
  const RunSummary s2 = Runner(plain, &reg).run();
  for (const ExperimentResult& r : s2.results) {
    EXPECT_EQ(r.trace, nullptr);
    EXPECT_FALSE(r.counters.empty());
  }

  // Metrics off: counters stay empty (opt-out for overhead-sensitive runs).
  RunnerOptions bare;
  bare.collect_metrics = false;
  const RunSummary s3 = Runner(bare, &reg).run();
  for (const ExperimentResult& r : s3.results) {
    EXPECT_TRUE(r.counters.empty());
    EXPECT_TRUE(r.profile.empty());
  }
}

TEST(RunnerTest, MergedChromeTraceIsValid) {
  ExperimentRegistry reg = make_fake_registry(3);
  RunnerOptions opt;
  opt.trace = true;
  const RunSummary s = Runner(opt, &reg).run();
  std::ostringstream os;
  write_chrome_trace(s, os, /*include_wall=*/false);
  const obs::TraceCheck check = obs::check_chrome_trace(os.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.event_count, 3u);  // one instant per fake experiment
  ASSERT_EQ(check.processes.size(), 3u);
  EXPECT_EQ(check.processes[0], "fake_0");  // pid order = sorted names
}

TEST(RunnerTest, TracedParallelRunIsByteIdenticalToSerial) {
  ExperimentRegistry reg = make_fake_registry(8);
  RunnerOptions serial;
  serial.jobs = 1;
  serial.trace = true;
  RunnerOptions parallel = serial;
  parallel.jobs = 8;
  const RunSummary a = Runner(serial, &reg).run();
  const RunSummary b = Runner(parallel, &reg).run();
  std::ostringstream ja, jb, ta, tb;
  write_json(a, ja, /*include_timing=*/false);
  write_json(b, jb, /*include_timing=*/false);
  write_chrome_trace(a, ta, /*include_wall=*/false);
  write_chrome_trace(b, tb, /*include_wall=*/false);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ta.str(), tb.str());
}

// Side-effect counter proving resumed experiments never re-execute.
std::atomic<int> g_executions{0};

class CountingExperiment final : public Experiment {
 public:
  explicit CountingExperiment(int index) : index_(index) {}
  std::string name() const override {
    return "counting_" + std::to_string(index_);
  }
  std::string paper_ref() const override { return "Figure 0"; }
  std::string description() const override { return "counts executions"; }
  void run(const ExperimentContext& ctx) override {
    g_executions.fetch_add(1);
    sim::Rng rng = sim::Rng(ctx.seed).fork("counting");
    *ctx.out << "counting " << index_ << ": " << rng.uniform(0, 1) << "\n\n";
    ctx.metric("draw", rng.uniform(0, 1));
    if (auto* m = obs::metrics()) m->counter("counting.runs").add();
  }

 private:
  int index_;
};

TEST(RunnerTest, ResumeSplicesFromStoreWithoutReExecuting) {
  const std::string path = testing::TempDir() + "fiveg_runner_resume.fgrs";
  std::remove(path.c_str());
  ExperimentRegistry reg;
  for (int i = 0; i < 6; ++i) {
    reg.add([i] { return std::make_unique<CountingExperiment>(i); });
  }

  RunnerOptions opt;
  opt.jobs = 2;
  opt.seed = 42;
  opt.store = std::make_shared<StoreWriter>(path);
  g_executions = 0;
  const RunSummary full = Runner(opt, &reg).run();
  EXPECT_EQ(g_executions.load(), 6);
  ASSERT_TRUE(full.all_ok());
  opt.store.reset();

  // Keep only half the store, as after a kill.
  const StoreLoad all = load_store_file(path);
  ASSERT_EQ(all.records.size(), 6u);
  std::remove(path.c_str());
  {
    StoreWriter writer(path);
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(writer.append(all.records[i]));
    }
  }

  RunnerOptions resume_opt = opt;
  resume_opt.resume = std::make_shared<
      const std::map<std::string, ExperimentResult>>(
      completed_runs(load_store_file(path).records, opt.seed, {}));
  ASSERT_EQ(resume_opt.resume->size(), 3u);
  resume_opt.store = std::make_shared<StoreWriter>(path);
  g_executions = 0;
  const RunSummary resumed = Runner(resume_opt, &reg).run();
  EXPECT_EQ(g_executions.load(), 3);  // only the missing half ran
  resume_opt.store.reset();

  std::ostringstream ja, jb;
  write_json(full, ja, /*include_timing=*/false);
  write_json(resumed, jb, /*include_timing=*/false);
  EXPECT_EQ(ja.str(), jb.str());
  // Spliced runs keep the execution data of the run that produced them.
  for (const auto& [name, r] : *resume_opt.resume) {
    const auto it = std::find_if(
        full.results.begin(), full.results.end(),
        [&](const ExperimentResult& f) { return f.name == name; });
    ASSERT_NE(it, full.results.end());
    EXPECT_EQ(r.wall_ms, it->wall_ms);
    EXPECT_EQ(r.peak_rss_kb, it->peak_rss_kb);
    EXPECT_EQ(r.profile.size(), it->profile.size());
  }

  // The resumed campaign appended only the re-run half: every run is now
  // in the store exactly once.
  const StoreLoad after = load_store_file(path);
  EXPECT_EQ(after.records.size(), 6u);
  EXPECT_EQ(completed_runs(after.records, opt.seed, {}).size(), 6u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fiveg::core
