// The one entry point CI and humans share: runs the whole experiment
// registry (or a filtered/smoke subset) across a thread pool and emits the
// text tables on stdout plus an optional machine-readable JSON document.
//
// stdout is byte-identical for any --jobs value at the same seed; timing
// goes to stderr.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "core/store.h"
#include "fault/fault.h"
#include "net/aqm.h"

namespace {

constexpr const char* kUsage = R"(usage: fiveg_runall [options]

Runs the full experiment registry (every reproduced table/figure) across a
thread pool. Output on stdout is byte-identical for any --jobs value at the
same seed; per-experiment timing is printed to stderr.

options:
  --jobs N      worker threads (default: hardware concurrency; 1 = serial)
  --sim-threads N
                intra-experiment lane workers for the parallel event core
                (sim::ParSim); 1 = serial core (default), 0 = auto
                (hardware concurrency split across --jobs). Output is
                byte-identical for every value
  --seed N      base seed; every experiment runs on its own fork (default 42)
  --filter S    only experiments whose name contains the substring S
  --smoke       only the fast smoke-tier experiments (CI per-commit tier)
  --timeout S   per-experiment wall-clock cap in finite seconds, 0 = off
                (default 600); a hung experiment is reported, not fatal
  --json PATH   also write machine-readable results to PATH ('-' = stdout,
                which suppresses the text tables)
  --trace PATH  write a merged Chrome trace_event JSON document to PATH
                (load in chrome://tracing or ui.perfetto.dev); one process
                per experiment, one thread per layer (sim/ran/tcp/net/energy)
  --trace-capacity N
                per-experiment trace ring capacity in events
                (default 262144; oldest events drop first)
  --faults PATH run every experiment under the fault plan at PATH (JSON,
                schema "fiveg-faults/v1"); deterministic per-experiment
                fault seeds, byte-identical at any --jobs
  --qdisc SPEC  queue discipline at every testbed's wireline bottleneck:
                droptail (default), codel, fq_codel or red, with an
                optional +ecn suffix (e.g. codel+ecn). Experiments that
                pin their own qdisc (the AQM sweeps) are unaffected.
  --resume DIR  resume a campaign from its --store directory DIR: every
                run DIR already holds with status ok at the current seed
                (and, under --manifest, in the same cell) is spliced in
                instead of re-run, and new runs keep appending to DIR
                (implies --store DIR); the merged output is byte-identical
                to an uninterrupted campaign. Incompatible with --trace
                (stored runs carry no event traces)
  --progress    heartbeat line on stderr every 2 s with done/failed/
                running counts and an ETA from completed and stored runs
  --store DIR   append one fiveg-rs/v1 columnar record per completed run to
                DIR/shard-<k>-of-<n>.fgrs (compact, crash-safe binary; feeds
                --resume, tools/fiveg_query and tools/fiveg_prof)
  --manifest PATH
                run the fiveg-campaign/v1 parameter grid at PATH (seeds x
                qdisc x fault plans), cells sequentially at their own
                derived seeds. The manifest supplies seed/filter/smoke;
                incompatible with --seed/--filter/--smoke/--json/--trace
                (export merged JSON with fiveg_query instead)
  --shard K/N   run only this invocation's share of the campaign: work
                unit i (cell-major, experiment-name order) belongs to
                shard K iff i mod N == K. The union of shards 0..N-1 is
                exactly the full campaign (default 0/1)
  --metrics     print each experiment's counters/profile to stderr
  --no-timing   omit wall-clock fields from the JSON and the trace
                (byte-stable output)
  --quiet       suppress the text tables on stdout
  --list        list the selected experiment names and exit
  -h, --help    this message
)";

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

bool parse_int(const char* s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  *out = static_cast<int>(v);
  return end != s && *end == '\0';
}

// Finite values only: "inf" and "nan" are rejected like any non-number.
bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(*out);
}

// Opens (creating the directory if needed) this invocation's shard file
// inside the store directory. Null on failure, with the error printed.
std::shared_ptr<fiveg::core::StoreWriter> open_store(
    const std::string& store_dir, std::size_t shard_k, std::size_t shard_n) {
  std::error_code ec;
  std::filesystem::create_directories(store_dir, ec);
  if (ec) {
    std::cerr << "cannot create store directory " << store_dir << ": "
              << ec.message() << "\n";
    return nullptr;
  }
  std::string path = store_dir;
  path += "/shard-";
  path += std::to_string(shard_k);
  path += "-of-";
  path += std::to_string(shard_n);
  path += fiveg::core::kStoreFileSuffix;
  auto store = std::make_shared<fiveg::core::StoreWriter>(path);
  if (!store->ok()) {
    std::cerr << store->error() << "\n";
    return nullptr;
  }
  return store;
}

// Points `opt` at the runs the --resume store already holds for its cell
// (its base seed and store labels).
void splice_resume(const std::vector<fiveg::core::StoreRecord>& stored,
                   fiveg::core::RunnerOptions* opt) {
  auto completed = std::make_shared<
      const std::map<std::string, fiveg::core::ExperimentResult>>(
      fiveg::core::completed_runs(stored, opt->seed, opt->store_labels));
  std::cerr << "fiveg_runall: resuming: " << completed->size()
            << " run(s) already complete\n";
  opt->resume = std::move(completed);
}

// Manifest mode: expand the parameter grid, take this shard's units, and
// run cell by cell (sequentially — the qdisc default and fault plan are
// campaign-wide globals within one cell). Cells share one store shard
// file; each runs at its own derived base seed and labels, so resume
// records never cross cells. `resume` is null unless --resume was given.
int run_manifest(const std::string& manifest_path,
                 const fiveg::core::RunnerOptions& base_opt,
                 const std::vector<fiveg::core::StoreRecord>* resume,
                 const std::string& store_dir,
                 std::size_t shard_k, std::size_t shard_n, bool quiet,
                 bool print_metrics, bool include_timing, bool list_only) {
  fiveg::core::CampaignManifest manifest;
  std::string error;
  if (!fiveg::core::load_manifest(manifest_path, &manifest, &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  const std::vector<fiveg::core::CampaignCell> cells = manifest.cells();

  // Experiment selection is cell-independent: the manifest's filter/smoke
  // applied to the registry.
  fiveg::core::RunnerOptions probe;
  probe.filter = manifest.filter;
  probe.smoke_only = manifest.smoke;
  const std::vector<std::string> names =
      fiveg::core::Runner(probe).selected();
  if (names.empty()) {
    std::cerr << "no experiments match the manifest selection\n";
    return 2;
  }
  const std::vector<fiveg::core::CampaignUnit> mine = fiveg::core::shard_units(
      fiveg::core::campaign_units(cells.size(), names), shard_k, shard_n);

  if (list_only) {
    for (const fiveg::core::CampaignUnit& u : mine) {
      std::cout << "seed=" << cells[u.cell].axis_seed << ";"
                << cells[u.cell].tag() << " " << u.experiment << "\n";
    }
    return 0;
  }
  if (mine.empty()) {
    std::cerr << "fiveg_runall: shard " << shard_k << "/" << shard_n
              << " has no work units\n";
    return 0;
  }

  std::vector<std::vector<std::string>> per_cell(cells.size());
  for (const fiveg::core::CampaignUnit& u : mine) {
    per_cell[u.cell].push_back(u.experiment);
  }

  fiveg::core::RunnerOptions base = base_opt;
  if (!store_dir.empty()) {
    base.store = open_store(store_dir, shard_k, shard_n);
    if (base.store == nullptr) return 2;
  }

  fiveg::core::RunSummary merged;
  bool all_ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (per_cell[i].empty()) continue;
    const fiveg::core::CampaignCell& cell = cells[i];
    fiveg::core::RunnerOptions opt = base;
    opt.seed = cell.base_seed();
    opt.only_names = per_cell[i];
    opt.filter.clear();
    opt.smoke_only = false;
    opt.store_labels = cell.labels();
    if (!cell.faults.empty()) {
      try {
        opt.faults = std::make_shared<fiveg::fault::FaultPlan>(
            fiveg::fault::FaultPlan::load(cell.faults));
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    }
    fiveg::net::QdiscConfig qdisc;
    if (!fiveg::net::parse_qdisc_spec(cell.qdisc, &qdisc)) {
      std::cerr << "bad qdisc spec in manifest: " << cell.qdisc << "\n";
      return 2;
    }
    fiveg::core::set_campaign_bottleneck_qdisc(qdisc);
    std::cerr << "fiveg_runall: cell seed=" << cell.axis_seed << ";"
              << cell.tag() << ": " << per_cell[i].size() << " run(s)\n";
    if (resume != nullptr) splice_resume(*resume, &opt);
    const fiveg::core::RunSummary summary = fiveg::core::Runner(opt).run();
    all_ok = all_ok && summary.all_ok();
    merged.wall_ms += summary.wall_ms;
    for (const fiveg::core::ExperimentResult& r : summary.results) {
      merged.results.push_back(r);
    }
  }

  if (!quiet) fiveg::core::write_text(merged, std::cout);
  if (print_metrics) {
    fiveg::core::write_metrics(merged, std::cerr, include_timing);
  }
  fiveg::core::write_timing(merged, std::cerr);
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fiveg::core::RunnerOptions opt;
  opt.jobs = 0;  // hardware concurrency
  opt.timeout_s = 600;
  std::string json_path;
  std::string trace_path;
  std::string resume_path;
  std::string store_dir;
  std::string manifest_path;
  std::size_t shard_k = 0;
  std::size_t shard_n = 1;
  bool seed_set = false;
  bool filter_set = false;
  bool smoke_set = false;
  bool print_metrics = false;
  bool include_timing = true;
  bool quiet = false;
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      if (!parse_int(need_value(), &opt.jobs)) {
        std::cerr << "bad --jobs value\n";
        return 2;
      }
    } else if (arg == "--sim-threads") {
      if (!parse_int(need_value(), &opt.sim_threads)) {
        std::cerr << "bad --sim-threads value\n";
        return 2;
      }
    } else if (arg == "--seed") {
      std::uint64_t seed = 0;
      if (!parse_u64(need_value(), &seed)) {
        std::cerr << "bad --seed value\n";
        return 2;
      }
      opt.seed = seed;
      seed_set = true;
    } else if (arg == "--filter") {
      opt.filter = need_value();
      filter_set = true;
    } else if (arg == "--smoke") {
      opt.smoke_only = true;
      smoke_set = true;
    } else if (arg == "--timeout") {
      if (!parse_double(need_value(), &opt.timeout_s) || opt.timeout_s < 0) {
        std::cerr << "bad --timeout value\n";
        return 2;
      }
    } else if (arg == "--json") {
      json_path = need_value();
    } else if (arg == "--trace") {
      trace_path = need_value();
      opt.trace = true;
    } else if (arg == "--trace-capacity") {
      std::uint64_t cap = 0;
      if (!parse_u64(need_value(), &cap) || cap == 0) {
        std::cerr << "bad --trace-capacity value\n";
        return 2;
      }
      opt.trace_capacity = static_cast<std::size_t>(cap);
    } else if (arg == "--faults") {
      const char* path = need_value();
      try {
        opt.faults = std::make_shared<fiveg::fault::FaultPlan>(
            fiveg::fault::FaultPlan::load(path));
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--qdisc") {
      fiveg::net::QdiscConfig qdisc;
      const char* spec = need_value();
      if (!fiveg::net::parse_qdisc_spec(spec, &qdisc)) {
        std::cerr << "bad --qdisc value: " << spec
                  << " (want droptail|codel|fq_codel|red, optionally +ecn)\n";
        return 2;
      }
      fiveg::core::set_campaign_bottleneck_qdisc(qdisc);
    } else if (arg == "--resume") {
      resume_path = need_value();
    } else if (arg == "--store") {
      store_dir = need_value();
    } else if (arg == "--manifest") {
      manifest_path = need_value();
    } else if (arg == "--shard") {
      const char* spec = need_value();
      if (!fiveg::core::parse_shard_spec(spec, &shard_k, &shard_n)) {
        std::cerr << "bad --shard value: " << spec
                  << " (want K/N with K < N)\n";
        return 2;
      }
    } else if (arg == "--progress") {
      opt.progress = true;
    } else if (arg == "--metrics") {
      print_metrics = true;
    } else if (arg == "--no-timing") {
      include_timing = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return 2;
    }
  }

  std::vector<fiveg::core::StoreRecord> stored;
  if (!resume_path.empty()) {
    if (!store_dir.empty() && store_dir != resume_path) {
      std::cerr << "--resume DIR keeps appending to DIR; --store must name "
                   "the same directory\n";
      return 2;
    }
    if (opt.trace) {
      // Store records carry the full result but not the event trace, so a
      // resumed campaign cannot reconstruct a complete merged trace.
      std::cerr << "--resume cannot be combined with --trace\n";
      return 2;
    }
    store_dir = resume_path;
    fiveg::core::StoreDirLoad load = fiveg::core::load_store_dir(resume_path);
    if (!load.ok()) {
      std::cerr << load.error << "\n";
      return 2;
    }
    if (load.torn_files > 0 || load.dropped_records > 0) {
      std::cerr << "fiveg_runall: store " << resume_path << ": "
                << load.torn_files << " torn shard tail(s), "
                << load.dropped_records
                << " undecodable record(s); those runs will re-run\n";
    }
    stored = std::move(load.records);
  }
  const std::vector<fiveg::core::StoreRecord>* resume =
      resume_path.empty() ? nullptr : &stored;

  if (!manifest_path.empty()) {
    if (seed_set || filter_set || smoke_set) {
      std::cerr << "--manifest supplies seed/filter/smoke; drop the "
                   "conflicting flags\n";
      return 2;
    }
    if (!json_path.empty() || opt.trace) {
      std::cerr << "--manifest cannot be combined with --json/--trace; "
                   "export merged JSON with fiveg_query\n";
      return 2;
    }
    return run_manifest(manifest_path, opt, resume, store_dir, shard_k,
                        shard_n, quiet, print_metrics, include_timing,
                        list_only);
  }

  if (shard_n > 1) {
    // Plain-mode sharding: the single implicit cell's experiments, split
    // by the same unit rule manifests use.
    const std::vector<fiveg::core::CampaignUnit> mine =
        fiveg::core::shard_units(
            fiveg::core::campaign_units(
                1, fiveg::core::Runner(opt).selected()),
            shard_k, shard_n);
    if (mine.empty()) {
      std::cerr << "fiveg_runall: shard " << shard_k << "/" << shard_n
                << " has no work units\n";
      return 0;
    }
    for (const fiveg::core::CampaignUnit& u : mine) {
      opt.only_names.push_back(u.experiment);
    }
  }

  if (resume != nullptr) splice_resume(*resume, &opt);

  if (!store_dir.empty() && !list_only) {
    opt.store = open_store(store_dir, shard_k, shard_n);
    if (opt.store == nullptr) return 2;
  }

  const fiveg::core::Runner runner(opt);
  if (list_only) {
    for (const std::string& name : runner.selected()) {
      std::cout << name << "\n";
    }
    return 0;
  }
  if (runner.selected().empty()) {
    std::cerr << "no experiments match\n";
    return 2;
  }

  const fiveg::core::RunSummary summary = runner.run();

  if (json_path == "-") {
    fiveg::core::write_json(summary, std::cout, include_timing);
  } else {
    if (!json_path.empty()) {
      std::ofstream f(json_path);
      if (!f) {
        std::cerr << "cannot open " << json_path << " for writing\n";
        return 2;
      }
      fiveg::core::write_json(summary, f, include_timing);
    }
    if (!quiet) fiveg::core::write_text(summary, std::cout);
  }
  if (!trace_path.empty()) {
    std::ofstream f(trace_path);
    if (!f) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 2;
    }
    fiveg::core::write_chrome_trace(summary, f, include_timing);
  }
  if (print_metrics) {
    fiveg::core::write_metrics(summary, std::cerr, include_timing);
  }
  fiveg::core::write_timing(summary, std::cerr);
  return summary.all_ok() ? 0 : 1;
}
