// Campaign profile viewer: aggregates one or more fiveg-rs/v1 store
// directories (fiveg_runall --store) into the tables an operator actually
// wants after a large sweep — where the wall time went (slowest runs,
// per-phase split, per-event-label attribution, all from each record's
// execution section) and which experiments are flaky (mixed statuses, or
// ok runs of one grid cell whose deterministic checksum disagrees, i.e. a
// determinism violation). Flakiness is judged over every stored record,
// before canonical_view folds re-runs away.
//
// usage: fiveg_prof DIR... [--top N] [--json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/store.h"
#include "measure/json.h"
#include "measure/table.h"
#include "obs/prof.h"

namespace {

using fiveg::core::ExperimentResult;
using fiveg::core::RunStatus;

constexpr const char* kUsage = R"(usage: fiveg_prof DIR... [options]

Aggregates campaign result stores (fiveg_runall --store DIR) into
wall-time and flakiness tables.

options:
  --top N   rows in the slowest-runs and label tables (default 10)
  --json    emit a machine-readable fiveg-prof/v2 document instead of text
  -h, --help  this message
)";

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", ms);
  return buf;
}

std::string fmt_us(double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", us);
  return buf;
}

// One stored run plus its deterministic checksum and profile summary.
struct Run {
  ExperimentResult result;
  std::string key;  // StoreRecord::key(): experiment, seed, labels
  std::uint64_t checksum = 0;
  fiveg::obs::prof::Summary prof;
};

struct PerExperiment {
  std::size_t runs = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  // Distinct deterministic checksums among ok runs, per record key (seed
  // and campaign labels): more than one for any key means the experiment
  // is not deterministic.
  std::map<std::string, std::set<std::uint64_t>> ok_checksums_by_key;

  [[nodiscard]] bool mixed_status() const {
    return (ok > 0) + (failed > 0) + (timed_out > 0) > 1;
  }
  [[nodiscard]] bool nondeterministic() const {
    for (const auto& [key, sums] : ok_checksums_by_key) {
      (void)key;
      if (sums.size() > 1) return true;
    }
    return false;
  }
};

struct LabelAgg {
  std::uint64_t events = 0;
  double total_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> dirs;
  std::size_t top = 10;
  bool as_json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      char* end = nullptr;
      top = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || top == 0) {
        std::cerr << "bad --top value\n";
        return 2;
      }
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) {
    std::cerr << "fiveg_prof: no store directories\n" << kUsage;
    return 2;
  }

  std::vector<Run> runs;
  std::size_t files = 0;
  std::size_t torn = 0;
  std::size_t dropped = 0;
  for (const std::string& dir : dirs) {
    fiveg::core::StoreDirLoad load = fiveg::core::load_store_dir(dir);
    if (!load.ok()) {
      std::cerr << "fiveg_prof: " << load.error << "\n";
      return 2;
    }
    files += load.files.size();
    torn += load.torn_files;
    dropped += load.dropped_records;
    for (fiveg::core::StoreRecord& rec : load.records) {
      Run run;
      run.checksum = fiveg::core::core_checksum(rec);
      run.prof = fiveg::obs::prof::summarize(rec.result.profile);
      run.result = std::move(rec.result);
      run.key = rec.key();
      runs.push_back(std::move(run));
    }
  }
  if (torn > 0 || dropped > 0) {
    std::cerr << "fiveg_prof: skipped " << torn << " torn shard tail(s), "
              << dropped << " undecodable record(s)\n";
  }

  // Aggregate.
  std::map<std::string, PerExperiment> per_exp;
  std::map<std::string, LabelAgg> labels;
  double total_wall_ms = 0;
  std::uint64_t peak_rss_kb = 0;
  for (const Run& run : runs) {
    const ExperimentResult& r = run.result;
    PerExperiment& e = per_exp[r.name];
    ++e.runs;
    switch (r.status) {
      case RunStatus::kOk:
        ++e.ok;
        e.ok_checksums_by_key[run.key].insert(run.checksum);
        break;
      case RunStatus::kFailed:
        ++e.failed;
        break;
      case RunStatus::kTimedOut:
        ++e.timed_out;
        break;
    }
    total_wall_ms += r.wall_ms;
    peak_rss_kb = std::max(peak_rss_kb, r.peak_rss_kb);
    for (const fiveg::obs::prof::LabelRow& row :
         fiveg::obs::prof::label_rows(r.profile)) {
      LabelAgg& agg = labels[row.label];
      agg.events += row.events;
      agg.total_ms += row.total_ms;
    }
  }

  std::vector<const Run*> slowest;
  slowest.reserve(runs.size());
  for (const Run& run : runs) slowest.push_back(&run);
  std::sort(slowest.begin(), slowest.end(), [](const Run* a, const Run* b) {
    if (a->result.wall_ms != b->result.wall_ms) {
      return a->result.wall_ms > b->result.wall_ms;
    }
    return a->result.name < b->result.name;
  });
  if (slowest.size() > top) slowest.resize(top);

  std::vector<std::pair<std::string, LabelAgg>> label_rows(labels.begin(),
                                                           labels.end());
  std::sort(label_rows.begin(), label_rows.end(),
            [](const auto& a, const auto& b) {
              if (a.second.total_ms != b.second.total_ms) {
                return a.second.total_ms > b.second.total_ms;
              }
              return a.first < b.first;
            });
  if (label_rows.size() > top) label_rows.resize(top);

  std::vector<std::pair<std::string, const PerExperiment*>> flaky;
  for (const auto& [name, e] : per_exp) {
    if (e.mixed_status() || e.nondeterministic()) flaky.emplace_back(name, &e);
  }

  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  for (const auto& [name, e] : per_exp) {
    (void)name;
    ok += e.ok;
    failed += e.failed;
    timed_out += e.timed_out;
  }

  if (as_json) {
    fiveg::measure::JsonWriter w(std::cout);
    w.begin_object();
    w.kv("schema", "fiveg-prof/v2");
    w.key("summary");
    w.begin_object();
    w.kv("records", static_cast<std::uint64_t>(runs.size()));
    w.kv("experiments", static_cast<std::uint64_t>(per_exp.size()));
    w.kv("ok", static_cast<std::uint64_t>(ok));
    w.kv("failed", static_cast<std::uint64_t>(failed));
    w.kv("timed_out", static_cast<std::uint64_t>(timed_out));
    w.kv("total_wall_ms", total_wall_ms);
    w.kv("peak_rss_kb", peak_rss_kb);
    w.kv("files", static_cast<std::uint64_t>(files));
    w.kv("torn_files", static_cast<std::uint64_t>(torn));
    w.kv("dropped_records", static_cast<std::uint64_t>(dropped));
    w.end_object();
    w.key("slowest");
    w.begin_array();
    for (const Run* run : slowest) {
      const ExperimentResult& r = run->result;
      w.begin_object();
      w.kv("name", r.name);
      w.kv("status", to_string(r.status));
      w.kv("wall_ms", r.wall_ms);
      w.kv("peak_rss_kb", r.peak_rss_kb);
      w.kv("construct_ms", run->prof.construct_ms);
      w.kv("simulate_ms", run->prof.simulate_ms);
      w.kv("report_ms", run->prof.report_ms);
      w.kv("events_scheduled", run->prof.events_scheduled);
      w.kv("top_label", run->prof.top_label);
      w.end_object();
    }
    w.end_array();
    w.key("labels");
    w.begin_array();
    for (const auto& [label, agg] : label_rows) {
      w.begin_object();
      w.kv("label", label);
      w.kv("events", agg.events);
      w.kv("total_ms", agg.total_ms);
      w.kv("mean_us",
           agg.events > 0
               ? agg.total_ms * 1000.0 / static_cast<double>(agg.events)
               : 0.0);
      w.end_object();
    }
    w.end_array();
    w.key("flaky");
    w.begin_array();
    for (const auto& [name, e] : flaky) {
      w.begin_object();
      w.kv("name", name);
      w.kv("runs", static_cast<std::uint64_t>(e->runs));
      w.kv("ok", static_cast<std::uint64_t>(e->ok));
      w.kv("failed", static_cast<std::uint64_t>(e->failed));
      w.kv("timed_out", static_cast<std::uint64_t>(e->timed_out));
      w.kv("nondeterministic", e->nondeterministic());
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::cout << "\n";
    return flaky.empty() ? 0 : 1;
  }

  std::cout << "campaign: " << runs.size() << " record(s), " << per_exp.size()
            << " experiment(s): " << ok << " ok, " << failed << " failed, "
            << timed_out << " timed out; total wall "
            << fmt_ms(total_wall_ms) << " ms, peak RSS " << peak_rss_kb
            << " kB\n\n";

  {
    fiveg::measure::TextTable table(
        "slowest runs",
        {"experiment", "status", "wall ms", "construct", "simulate",
         "report", "peak kB", "top label"});
    for (const Run* run : slowest) {
      const ExperimentResult& r = run->result;
      table.add_row({r.name, std::string(to_string(r.status)),
                     fmt_ms(r.wall_ms), fmt_ms(run->prof.construct_ms),
                     fmt_ms(run->prof.simulate_ms),
                     fmt_ms(run->prof.report_ms),
                     std::to_string(r.peak_rss_kb), run->prof.top_label});
    }
    table.print(std::cout);
  }

  if (!label_rows.empty()) {
    fiveg::measure::TextTable table(
        "event labels by wall time",
        {"label", "events", "total ms", "mean us"});
    for (const auto& [label, agg] : label_rows) {
      table.add_row(
          {label, std::to_string(agg.events), fmt_ms(agg.total_ms),
           fmt_us(agg.events > 0 ? agg.total_ms * 1000.0 /
                                       static_cast<double>(agg.events)
                                 : 0.0)});
    }
    table.print(std::cout);
  }

  if (!flaky.empty()) {
    fiveg::measure::TextTable table(
        "flaky experiments",
        {"experiment", "runs", "ok", "failed", "timed out", "verdict"});
    for (const auto& [name, e] : flaky) {
      table.add_row({name, std::to_string(e->runs), std::to_string(e->ok),
                     std::to_string(e->failed), std::to_string(e->timed_out),
                     e->nondeterministic() ? "nondeterministic"
                                           : "mixed status"});
    }
    table.print(std::cout);
  } else {
    std::cout << "no flaky experiments\n";
  }

  return flaky.empty() ? 0 : 1;
}
