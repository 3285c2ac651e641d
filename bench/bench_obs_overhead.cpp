// Guard-rail benchmark for the observability layer: measures raw
// Simulator::run event throughput with no tracer/metrics installed (the
// disabled path every experiment takes by default), then again with a
// MetricsRegistry scope installed (the path a profiled campaign takes).
// The disabled number is committed as BENCH_obs.json; the acceptance bar
// is <2% regression versus the baseline recorded there
// (tools/ci/check_bench_regression.py --threshold 2 compares, non-gating).
//
// Prints a small JSON document on stdout so the driver can diff runs:
//   {"events": ..., "reps": ..., "events_per_sec_median": ...,
//    "profiled_events_per_sec_median": ..., "profiled_overhead_pct": ...}
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <functional>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace {

using Clock = std::chrono::steady_clock;

// One rep: a self-rescheduling event chain plus a fan of one-shot timers,
// roughly the schedule/pop mix of a TCP experiment's hot loop. The chain
// events are labeled so the profiled variant exercises the per-label
// attribution path, not just the bare counters.
double events_per_sec(std::uint64_t chain_events) {
  fiveg::sim::Simulator simr;
  std::uint64_t fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < chain_events) {
      simr.schedule_in(fiveg::sim::kMicrosecond, "bench.chain", chain);
    }
  };
  simr.schedule_in(0, "bench.chain", chain);
  for (int i = 0; i < 1024; ++i) {
    simr.schedule_in((i + 1) * fiveg::sim::kMillisecond, [&] { ++fired; });
  }
  const auto start = Clock::now();
  simr.run();
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(simr.executed_events()) / secs;
}

double median_rate(std::uint64_t chain_events, int reps) {
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) rates.push_back(events_per_sec(chain_events));
  std::sort(rates.begin(), rates.end());
  return rates[static_cast<std::size_t>(reps) / 2];
}

}  // namespace

int main() {
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr int kReps = 7;

  // Disabled path first (the BENCH_obs.json guard-rail number).
  const double disabled = median_rate(kEvents, kReps);

  // Profiled path: same workload under a metrics scope, as installed by
  // the Runner when a campaign collects metrics.
  double profiled = 0;
  {
    fiveg::obs::MetricsRegistry registry;
    const fiveg::obs::ScopedObs scope(nullptr, &registry);
    profiled = median_rate(kEvents, kReps);
  }

  const double overhead_pct =
      disabled > 0 ? (disabled - profiled) / disabled * 100.0 : 0.0;
  std::printf(
      "{\"events\": %llu, \"reps\": %d, \"events_per_sec_median\": %.0f, "
      "\"profiled_events_per_sec_median\": %.0f, "
      "\"profiled_overhead_pct\": %.1f}\n",
      static_cast<unsigned long long>(kEvents), kReps, disabled, profiled,
      overhead_pct);
  return 0;
}
