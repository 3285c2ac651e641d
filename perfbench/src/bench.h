// Shared pieces of the repo benchmark: the workload interface, the per-rep
// result every workload returns, benchmark-side span tracing, and small
// numeric helpers. Everything here drives the simulator through its public
// API only; layer costs are measured from outside by wrapping the calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// FNV-1a 64-bit over the simulated statistics a workload produces. Doubles
/// are hashed by bit pattern: the checksum is the bit-exactness contract.
class Checksum {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// 16 lowercase hex digits.
std::string hex64(std::uint64_t v);

/// One named per-rep value: a count (a pure function of the seed, so
/// identical every rep) or a host time. Reps combine by median.
struct Value {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one rep of a workload produced.
struct RepResult {
  int ops = 0;  // operations attempted: flows, district runs, experiments
  int failed_ops = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::uint64_t checksum = 0;  // over simulated statistics only
  std::vector<Value> values;   // per-layer counts and host times
  std::vector<double> step_ms;  // host ms per simulated step (see README)

  void fail(std::string what) {
    failures.push_back(std::move(what));
  }
  void put(std::string name, double value, std::string unit) {
    values.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- host-speed reference ----------------------------------------------

/// Runs the reference kernel once and returns its host seconds: a fixed,
/// benchmark-owned amount of work shaped like an event loop — binary-heap
/// pops and pushes, one malloc'd "packet" freed and replaced per event, and
/// dependent random reads and writes over a 4 MiB table. Its table is
/// mapped and populated before the clock starts, and everything is freed
/// before it returns. On a shared host the simulator and this kernel slow
/// down together (other tenants contend for the same cores, caches and
/// memory), so a workload's time over the kernel's time, measured in the
/// same run, is steadier from run to run than either.
double reference_kernel();

/// Peak resident set size of the workload alone. The reference kernel's
/// table would otherwise set the peak: before each kernel run the current
/// high-water mark is folded into the running peak, and after it the
/// high-water mark is reset (Linux /proc/self/clear_refs; where that file
/// cannot be written, the kernel's 4 MiB table counts in the peak).
class PeakRss {
 public:
  static PeakRss& instance();
  void fold();
  void reset_high_water_mark();
  [[nodiscard]] double peak_mb();

 private:
  double peak_kb_ = 0;
};

/// Times one rep's measured phase in segments and runs the reference
/// kernel, untimed, before the first segment and after each one: once, or
/// more until the runs add up to kShare of the segment just ended. Its runs
/// are thus spread over the timed phase in proportion to time, and their
/// median weighs a long segment (a 7 s experiment) as much as the same
/// time spent in short ones.
/// wall_s is the sum of the segments.
class RepClock {
 public:
  void start();
  /// Ends the current segment and starts the next. Workloads call it
  /// between their natural units of work (16 chunks of a flow, one ParSim
  /// window, one experiment).
  void boundary();
  void stop();
  [[nodiscard]] double wall_s() const noexcept { return wall_s_; }
  [[nodiscard]] const std::vector<double>& ref_s() const noexcept {
    return ref_s_;
  }

 private:
  static constexpr double kShare = 0.05;
  void reference(double segment_s);
  Clock::time_point segment_start_;
  std::vector<double> ref_s_;
  double wall_s_ = 0;
};

/// One benchmark workload. A rep is setup() (timed as set-up), run()
/// (timed as the measured phase, in segments) and collect() (checks and
/// statistics, untimed), which also releases the rep's state.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the rep's inputs from `seed`. `reference` marks the warm-up
  /// rep, which a workload may run on a reference schedule (city_par runs
  /// ParSim serially there).
  virtual void setup(std::uint64_t seed, bool reference) = 0;
  /// The measured phase; calls clock.boundary() between units of work.
  /// Host times a workload reports itself must leave out the boundaries.
  virtual void run(RepClock& clock) = 0;
  virtual RepResult collect() = 0;
  /// Drops state built by setup() without running (set-up-only samples).
  virtual void reset() = 0;
};

struct Options {
  std::string golden_dir;  // bench/golden
  std::string work_dir;    // where ledger/store output and spans go
};

std::unique_ptr<Workload> make_bulk_droptail();
std::unique_ptr<Workload> make_bbr_codel();
std::unique_ptr<Workload> make_city_par();
std::unique_ptr<Workload> make_smoke_campaign(const Options& options);

// --- benchmark-side tracing -------------------------------------------

/// One span per public call the benchmark makes while tracing is on.
struct SpanRecord {
  const char* name;  // "<layer>.<call>", a string literal
  double start_s;    // seconds since the log was created
  double end_s;
  int parent;        // index into the log, -1 for a rep root
};

/// In-memory span log; written out once the run ends. Single-threaded:
/// every wrapped call is made from the benchmark's main thread.
class SpanLog {
 public:
  static SpanLog& instance();
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  int open(const char* name);
  void close(int index);
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] double now_s() const { return seconds_since(origin_); }

 private:
  SpanLog() : origin_(Clock::now()) {}
  Clock::time_point origin_;
  bool enabled_ = false;
  int current_ = -1;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : index_(SpanLog::instance().enabled() ? SpanLog::instance().open(name)
                                             : -1) {}
  ~Span() {
    if (index_ >= 0) SpanLog::instance().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

/// Self time (span time minus the time its children cover) summed per
/// layer — the span name up to its first '.' — over spans [from, end).
std::vector<Value> self_ms_by_layer(std::size_t from);

/// Writes the span log as JSON lines (name, start, end, parent).
bool write_spans(const std::string& path);

}  // namespace perfbench
