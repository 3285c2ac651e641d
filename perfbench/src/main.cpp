// fiveg_perfbench: runs one benchmark workload for a fixed host-time
// budget and prints every end-to-end and per-layer metric by name with its
// unit, then one JSON line with the correctness verdict and all metrics.
//
//   fiveg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --golden-dir DIR --work-dir DIR --checksums FILE
//
// A run is: a few set-up-only samples, one warm-up rep (excluded from
// timing; its checksum is the reference every later rep must reproduce),
// then timed reps, each followed by more set-up-only samples, until S
// seconds have passed. Every rep's measured phase runs in segments with
// the reference kernel between them (RepClock). With --trace 1 every other
// timed rep records benchmark-side spans; end-to-end metrics always come
// from the untraced reps, per-layer metrics from the traced ones, and the
// ratio of their walls is the tracing overhead.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "obs/json_check.h"

namespace perfbench {
namespace {

// Set-up-only samples: kMinSetupSamples before the warm-up rep, then after
// every timed rep more until kSetupShare of that rep's wall has passed (at
// least one, at most kMaxSetupSamplesPerRep), so that they are spread over
// the whole run like the reps and cheap set-ups get many samples.
constexpr int kMinSetupSamples = 3;

// Untraced timed reps run at least this often whatever --seconds says, so
// that wall_s is a median even where one rep takes most of the budget
// (smoke_campaign: about 12 s a rep).
constexpr int kMinTimedReps = 3;

// setup_s is set-up time at reference speed: the median set-up sample
// scaled by kNominalRefS over the run's median reference-kernel time.
// 10 ms is a round figure inside the 4-16 ms the kernel took on a shared
// 4-core Xeon VM; setup_host_s is the unscaled median.
constexpr double kNominalRefS = 0.010;
constexpr int kMaxSetupSamplesPerRep = 1000;
constexpr double kSetupShare = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  Options options;
  std::string checksums;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "fiveg_perfbench: %s\nusage: fiveg_perfbench --workload "
               "bulk_droptail|bbr_codel|city_par|smoke_campaign --seed N "
               "--seconds S --trace 0|1 --golden-dir DIR --work-dir DIR "
               "--checksums FILE\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || a->seconds <= 0) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--golden-dir") {
      a->options.golden_dir = val;
    } else if (key == "--work-dir") {
      a->options.work_dir = val;
    } else if (key == "--checksums") {
      a->checksums = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() &&
         !a->options.golden_dir.empty() && !a->options.work_dir.empty() &&
         !a->checksums.empty();
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "bulk_droptail") return make_bulk_droptail();
  if (a.workload == "bbr_codel") return make_bbr_codel();
  if (a.workload == "city_par") return make_city_par();
  if (a.workload == "smoke_campaign") {
    return make_smoke_campaign(a.options);
  }
  return nullptr;
}

// The default seed and the held-out seed: every workload must have a
// committed checksum at both.
constexpr std::uint64_t kPinnedSeeds[] = {42, 7};

// The committed checksum for (seed, workload): "" when the file pins none
// at a seed that need not be pinned. Sets *error when the file cannot be
// read or parsed, or a pinned seed has no entry for the workload.
std::string committed_checksum(const std::string& path, std::uint64_t seed,
                               const std::string& workload,
                               std::string* error) {
  std::ifstream f(path);
  std::stringstream text;
  text << f.rdbuf();
  const auto doc = f ? fiveg::obs::json_parse(text.str()) : nullptr;
  const fiveg::obs::JsonValue* seeds =
      doc == nullptr ? nullptr : doc->get("seeds");
  if (seeds == nullptr) {
    *error = "cannot read committed checksums from " + path;
    return "";
  }
  const fiveg::obs::JsonValue* at = seeds->get(std::to_string(seed));
  const fiveg::obs::JsonValue* v = at == nullptr ? nullptr : at->get(workload);
  if (v != nullptr && !v->string.empty()) return v->string;
  for (const std::uint64_t pinned : kPinnedSeeds) {
    if (seed == pinned) {
      *error = path + " has no checksum for " + workload + " at seed " +
               std::to_string(seed);
    }
  }
  return "";
}

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  std::vector<double> ref_s;
  std::size_t spans = 0;
  RepResult result;
  std::vector<Value> self_ms;
};

Rep run_rep(Workload& w, std::uint64_t seed, bool reference, bool traced) {
  Rep rep;
  rep.traced = traced;
  SpanLog& log = SpanLog::instance();
  const std::size_t first_span = log.spans().size();
  log.set_enabled(traced);
  {
    Span root("rep");
    auto start = Clock::now();
    w.setup(seed, reference);
    rep.setup_s = seconds_since(start);
    RepClock clock;
    clock.start();
    w.run(clock);
    clock.stop();
    rep.wall_s = clock.wall_s();
    rep.ref_s = clock.ref_s();
    rep.result = w.collect();
  }
  log.set_enabled(false);
  if (traced) {
    rep.spans = log.spans().size() - first_span;
    rep.self_ms = self_ms_by_layer(first_span);
  }
  return rep;
}

// Ordered metric table: name -> (value, unit).
class Metrics {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = rows_.size();
      rows_.push_back({name, value, unit});
    } else {
      rows_[index_[name]] = {name, value, unit};
    }
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? 0.0 : rows_[it->second].value;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return index_.count(name) != 0;
  }
  [[nodiscard]] const std::vector<Value>& rows() const { return rows_; }

 private:
  std::map<std::string, std::size_t> index_;
  std::vector<Value> rows_;
};

// Median of every per-rep value and of the derived per-layer metrics,
// over `reps` (all non-empty, same workload).
void layer_metrics(const std::vector<const Rep*>& reps, Metrics* m) {
  std::map<std::string, std::vector<double>> by_name;
  std::vector<std::string> order;
  std::map<std::string, std::string> units;
  std::vector<double> walls, steps;
  for (const Rep* rep : reps) {
    walls.push_back(rep->wall_s);
    steps.insert(steps.end(), rep->result.step_ms.begin(),
                 rep->result.step_ms.end());
    for (const auto* vec : {&rep->result.values, &rep->self_ms}) {
      for (const Value& v : *vec) {
        if (by_name.count(v.name) == 0) order.push_back(v.name);
        by_name[v.name].push_back(v.value);
        units[v.name] = v.unit;
      }
    }
  }
  for (const std::string& name : order) {
    m->put(name, median(by_name[name]), units[name]);
  }
  const double wall = median(walls);
  const double events = m->get("sim.events");
  m->put("sim.ns_per_event", 1e9 * wall / events, "ns");
  if (m->get("sim.scheduled") > 0) {
    m->put("sim.cancel_ratio",
           m->get("sim.cancelled") / m->get("sim.scheduled"), "ratio");
  }
  m->put("step_ms_p50", quantile(steps, 0.5), "ms");
  m->put("step_ms_p99", quantile(steps, 0.99), "ms");
  m->put("step_samples", static_cast<double>(steps.size()), "count");
  if (m->has("net.link_pkts")) {
    m->put("sim.chunk_ms_p50", m->get("step_ms_p50"), "ms");
    m->put("sim.chunk_ms_p99", m->get("step_ms_p99"), "ms");
    const double pkts = m->get("net.link_pkts");
    m->put("net.events_per_pkt", events / pkts, "ratio");
    m->put("net.ns_per_pkt", 1e9 * wall / pkts, "ns");
    m->put("tcp.retx_ratio",
           m->get("tcp.retransmissions") / m->get("tcp.segments_sent"),
           "ratio");
  }
  if (m->has("ran.ue_evals")) {
    m->put("parsim.window_ms_p50", m->get("step_ms_p50"), "ms");
    m->put("parsim.window_ms_p99", m->get("step_ms_p99"), "ms");
    m->put("ran.ns_per_ue_eval", 1e9 * wall / m->get("ran.ue_evals"), "ns");
  }
}

// End-to-end metrics over the untraced timed reps.
void end_to_end_metrics(const std::vector<const Rep*>& reps,
                        const std::vector<double>& setup_samples,
                        const Metrics& layer, Metrics* m) {
  std::vector<double> walls, ref_s;
  for (const Rep* rep : reps) {
    walls.push_back(rep->wall_s);
    ref_s.insert(ref_s.end(), rep->ref_s.begin(), rep->ref_s.end());
  }
  const double wall = median(walls);
  const double ref = median(ref_s);
  m->put("setup_s", median(setup_samples) * kNominalRefS / ref, "s");
  m->put("setup_host_s", median(setup_samples), "s");
  m->put("setup_samples", static_cast<double>(setup_samples.size()), "count");
  m->put("wall_ref", wall / ref, "ref");
  m->put("wall_s", wall, "s");
  m->put("wall_s.q1", quantile(walls, 0.25), "s");
  m->put("wall_s.q3", quantile(walls, 0.75), "s");
  m->put("wall_s.reps", static_cast<double>(walls.size()), "count");
  m->put("ref_ms", 1e3 * ref, "ms");
  m->put("ref_ms.q1", 1e3 * quantile(ref_s, 0.25), "ms");
  m->put("ref_ms.q3", 1e3 * quantile(ref_s, 0.75), "ms");
  m->put("ref_runs", static_cast<double>(ref_s.size()), "count");
  if (layer.has("sim.simulated_s")) {
    m->put("sim_s_per_host_s", layer.get("sim.simulated_s") / wall, "sim_s/s");
  }
  if (layer.has("net.link_pkts")) {
    m->put("pkts_per_s", layer.get("net.link_pkts") / wall, "1/s");
    m->put("goodput_bytes_per_s", layer.get("tcp.bytes_acked") / wall, "B/s");
  }
  if (layer.has("ran.ue_evals")) {
    m->put("ue_evals_per_s", layer.get("ran.ue_evals") / wall, "1/s");
  }
  m->put("peak_rss_mb", PeakRss::instance().peak_mb(), "MB");
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int bench_main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage("bad arguments");
  std::unique_ptr<Workload> w = make_workload(args);
  if (w == nullptr) return usage("unknown workload");

  // Host and build, recorded beside every result.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("host: nproc=%d hardware_concurrency=%u cpu=\"%s\"\n", nproc(),
              std::thread::hardware_concurrency(), cpu_model().c_str());
  std::printf("build: compiler=\"%s\" type=%s flags=\"%s\"\n",
              PERFBENCH_COMPILER, build_type.c_str(), PERFBENCH_CXX_FLAGS);
  if (build_type != "Release") {
    std::printf("WARNING: build type %s is not Release; numbers are not "
                "comparable\n",
                build_type.c_str());
  }

  std::vector<double> setup_samples;
  const auto sample_setup = [&](int min_samples, double budget_s) {
    const auto begin = Clock::now();
    for (int i = 0; i < kMaxSetupSamplesPerRep; ++i) {
      if (i >= min_samples && seconds_since(begin) >= budget_s) break;
      const auto start = Clock::now();
      w->setup(args.seed, false);
      setup_samples.push_back(seconds_since(start));
      w->reset();
    }
  };
  sample_setup(kMinSetupSamples, 0.0);

  std::vector<Rep> reps;
  reps.push_back(run_rep(*w, args.seed, /*reference=*/true, false));
  const std::uint64_t reference = reps.front().result.checksum;
  setup_samples.push_back(reps.front().setup_s);

  const auto loop_start = Clock::now();
  int untraced = 0, traced = 0;
  while (seconds_since(loop_start) < args.seconds ||
         untraced < kMinTimedReps ||
         (args.trace && traced == 0)) {
    const bool trace_this = args.trace && untraced > traced;
    Rep rep = run_rep(*w, args.seed, false, trace_this);
    if (rep.result.checksum != reference) {
      rep.result.fail("rep checksum " + hex64(rep.result.checksum) +
                      " differs from the warm-up rep's " + hex64(reference));
      rep.result.failed_ops = rep.result.ops;
    }
    (trace_this ? traced : untraced) += 1;
    if (!trace_this) setup_samples.push_back(rep.setup_s);
    sample_setup(1, kSetupShare * rep.wall_s);
    reps.push_back(std::move(rep));
  }

  std::string pin_error;
  const std::string pinned = committed_checksum(args.checksums, args.seed,
                                                args.workload, &pin_error);
  const bool pinned_ok =
      pin_error.empty() && (pinned.empty() || pinned == hex64(reference));

  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (Rep& rep : reps) {
    attempted += rep.result.ops;
    failed += pinned_ok ? rep.result.failed_ops : rep.result.ops;
    for (const std::string& f : rep.result.failures) failures.push_back(f);
  }
  if (!pin_error.empty()) {
    failures.push_back(pin_error);
  } else if (!pinned_ok) {
    failures.push_back("checksum " + hex64(reference) +
                       " differs from the committed " + pinned + " at seed " +
                       std::to_string(args.seed));
  }

  std::vector<const Rep*> plain, spanned;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    (reps[i].traced ? spanned : plain).push_back(&reps[i]);
  }
  Metrics layer;
  layer_metrics(args.trace ? spanned : plain, &layer);
  if (args.trace) {
    std::vector<double> traced_walls, plain_walls, spans;
    for (const Rep* r : spanned) {
      traced_walls.push_back(r->wall_s);
      spans.push_back(static_cast<double>(r->spans));
    }
    for (const Rep* r : plain) plain_walls.push_back(r->wall_s);
    layer.put("trace.overhead_ratio",
              median(traced_walls) / median(plain_walls), "ratio");
    layer.put("trace.spans", median(spans), "count");
    layer.put("trace.reps", static_cast<double>(spanned.size()), "count");
  }
  Metrics e2e;
  end_to_end_metrics(plain, setup_samples, layer, &e2e);
  // Cold, and on city_par the threaded schedule: for reading, not gating.
  e2e.put("warmup_wall_s", reps.front().wall_s, "s");
  e2e.put("fail_ratio",
          static_cast<double>(failed) / static_cast<double>(attempted),
          "ratio");

  std::printf("workload: %s seed=%llu seconds=%g trace=%d checksum=%s "
              "pinned=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, hex64(reference).c_str(),
              !pin_error.empty()  ? "ERROR"
              : pinned.empty()    ? "none"
              : pinned_ok         ? "match"
                                  : "MISMATCH");
  for (const std::string& f : failures) std::printf("FAIL: %s\n", f.c_str());
  for (const Metrics* table : {&e2e, &layer}) {
    for (const Value& v : table->rows()) {
      std::printf("%-34s %.6g %s\n", v.name.c_str(), v.value, v.unit.c_str());
    }
  }

  if (args.trace) {
    const std::string spans_path = args.options.work_dir + "/spans-" +
                                   args.workload + "-" +
                                   std::to_string(args.seed) + ".jsonl";
    if (write_spans(spans_path)) {
      std::printf("spans: %s\n", spans_path.c_str());
    }
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"checksum\": \"" << hex64(reference) << "\", \"rep_wall_s\": [";
  for (std::size_t i = 0; i < plain.size(); ++i) {
    json << (i == 0 ? "" : ", ") << plain[i]->wall_s;
  }
  json << "]"
       << ", \"host\": {\"nproc\": " << nproc()
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
       << PERFBENCH_COMPILER << "\", \"build_type\": \"" << build_type
       << "\"}, \"metrics\": {";
  bool first = true;
  for (const Metrics* table : {&e2e, &layer}) {
    for (const Value& v : table->rows()) {
      // A broken run can divide by a zero count; JSON has no inf or NaN,
      // and such a run already reports correct = false.
      json << (first ? "" : ", ") << "\"" << v.name << "\": {\"value\": "
           << (std::isfinite(v.value) ? v.value : 0.0) << ", \"unit\": \""
           << v.unit << "\"}";
      first = false;
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::bench_main(argc, argv); }
