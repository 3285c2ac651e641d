// Parallel experiment runner: executes the registry across a thread pool
// with deterministic per-experiment seed forking, so a --jobs 8 campaign is
// byte-identical to a serial one at the same base seed. Each experiment
// writes into its own buffer and structured result; output is emitted in
// sorted-name order once the campaign finishes. A hung experiment is
// abandoned at the per-experiment timeout and reported, not fatal.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace fiveg::fault {
class FaultPlan;
}

namespace fiveg::core {

class StoreWriter;

struct RunnerOptions {
  int jobs = 1;              // <= 0 -> hardware concurrency
  // Intra-experiment parallelism (sim::ParSim lane workers) per
  // experiment. Explicit values are honored as given; <= 0 means auto:
  // hardware concurrency divided across --jobs (max(1, hw / jobs) per
  // experiment), so `--jobs 0 --sim-threads 0` saturates the machine
  // without oversubscribing it. Output is byte-identical for every value
  // — parallel determinism is ParSim's contract, which is what makes
  // this knob safe to auto-tune.
  int sim_threads = 1;
  std::uint64_t seed = 42;   // base seed; each experiment gets a fork of it
  std::string filter;        // substring match on the name; empty = all
  bool smoke_only = false;   // only experiments with smoke() == true
  // Explicit run list (campaign sharding, see core/campaign.h): when
  // non-empty, exactly these experiments run — filter/smoke_only still
  // apply on top, and names unknown to the registry are ignored.
  std::vector<std::string> only_names;
  // Per-experiment wall-clock cap; 0 (or a cap too large for the clock)
  // = unlimited.
  double timeout_s = 0;
  // Observability: each experiment runs under its own obs::Scope. Metrics
  // fill ExperimentResult::counters/profile; tracing additionally buffers
  // an event trace per experiment (ExperimentResult::trace).
  bool collect_metrics = true;
  bool trace = false;
  std::size_t trace_capacity = 0;  // events per experiment; 0 = default
  // Fault injection: every experiment runs under this plan (fault seeds
  // are per-experiment forks, so the campaign stays --jobs-deterministic).
  // Null or empty = no injection; the fault path is inert.
  std::shared_ptr<const fault::FaultPlan> faults;
  // Resume set (core/store.h completed_runs): runs found here are spliced
  // into the summary verbatim instead of executing, and are not appended
  // to the store again — they are already in it. Because store records
  // carry the full result, the merged campaign output is byte-identical
  // to an uninterrupted run.
  std::shared_ptr<const std::map<std::string, ExperimentResult>> resume;
  // Columnar result store (core/store.h): when set, one fiveg-rs/v1
  // record per executed run is appended as it completes, tagged with
  // `store_labels` (the campaign cell's dimensions; sorted by key).
  std::shared_ptr<StoreWriter> store;
  std::vector<std::pair<std::string, std::string>> store_labels;
  // Live telemetry: a heartbeat line on stderr every 2 s (done/failed/
  // running counts plus an ETA extrapolated from completed wall_ms
  // history, seeded by the resume set's recorded timings). stderr only —
  // stdout stays byte-identical with or without it.
  bool progress = false;
};

/// Outcome of a whole campaign. `results` is sorted by experiment name,
/// independent of completion order.
struct RunSummary {
  std::vector<ExperimentResult> results;
  double wall_ms = 0;  // whole-campaign wall clock

  [[nodiscard]] int count(RunStatus status) const;
  [[nodiscard]] bool all_ok() const;
};

class Runner {
 public:
  /// `registry` is borrowed; null means the global instance.
  explicit Runner(RunnerOptions opt, ExperimentRegistry* registry = nullptr);

  /// Names selected by the filter/smoke options, sorted.
  [[nodiscard]] std::vector<std::string> selected() const;

  /// Runs every selected experiment across the thread pool.
  RunSummary run() const;

  /// The per-experiment seed: sim::Rng fork semantics keyed by experiment
  /// name, so adding an experiment never perturbs the seeds of others.
  [[nodiscard]] static std::uint64_t fork_seed(std::uint64_t base_seed,
                                               std::string_view name);

 private:
  ExperimentResult run_one(const std::string& name) const;

  RunnerOptions opt_;
  ExperimentRegistry* registry_;
};

/// Emits the campaign's captured text output in sorted-name order, followed
/// by a one-line status summary. Byte-identical for any --jobs value (no
/// timing is printed here).
void write_text(const RunSummary& summary, std::ostream& os);

/// Emits the machine-readable JSON document (schema "fiveg-runall/v4").
/// Each experiment carries a flat `counters` object (deterministic kSim
/// metrics), optional `histograms` / `digests` objects with full bucket
/// payloads, and, when `include_timing` is on, a `profile` object (kWall
/// metrics) plus `wall_ms` / `peak_rss_kb`. `include_timing` off drops
/// every wall-clock field so two runs at the same seed compare
/// byte-identical regardless of parallelism.
///
/// Schema changelog:
///   v4: per-experiment `peak_rss_kb` and a summary `peak_rss_kb`
///       (campaign-wide max), both timing-gated like `wall_ms`; wall_ms
///       and peak_rss_kb are now guaranteed on every status, including
///       failed and timed-out runs.
///   v3: full `histograms` / `digests` bucket payloads.
void write_json(const RunSummary& summary, std::ostream& os,
                bool include_timing = true);

/// Per-experiment wall-clock report (slowest first), for humans on stderr.
void write_timing(const RunSummary& summary, std::ostream& os);

/// Human-readable per-experiment metrics report (the --metrics flag):
/// deterministic counters always, kWall profiling when `include_timing`.
void write_metrics(const RunSummary& summary, std::ostream& os,
                   bool include_timing = true);

/// Merges every experiment's trace into one Chrome trace_event JSON
/// document: one "process" per experiment (sorted order), one "thread" per
/// layer category. `include_wall` off drops wall-clock side data so traces
/// diff clean across --jobs values.
void write_chrome_trace(const RunSummary& summary, std::ostream& os,
                        bool include_wall = true);

}  // namespace fiveg::core
