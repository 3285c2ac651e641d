// Span log, self-time roll-up and the numeric helpers shared by the
// workloads.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

int SpanLog::open(const char* name) {
  spans_.push_back({name, now_s(), 0.0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void SpanLog::close(int index) {
  SpanRecord& s = spans_[static_cast<std::size_t>(index)];
  s.end_s = now_s();
  current_ = s.parent;
}

std::vector<Value> self_ms_by_layer(std::size_t from) {
  const std::vector<SpanRecord>& spans = SpanLog::instance().spans();
  // Children of one parent are sequential calls, so the part of the
  // parent they cover is the sum of their durations.
  std::vector<double> child_s(spans.size(), 0.0);
  for (std::size_t i = from; i < spans.size(); ++i) {
    if (spans[i].parent >= static_cast<int>(from)) {
      child_s[static_cast<std::size_t>(spans[i].parent)] +=
          spans[i].end_s - spans[i].start_s;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    by_layer[layer] += 1e3 * (spans[i].end_s - spans[i].start_s - child_s[i]);
  }
  std::vector<Value> out;
  for (const auto& [layer, ms] : by_layer) {
    out.push_back({"self_ms." + layer, ms, "ms"});
  }
  return out;
}

bool write_spans(const std::string& path) {
  std::ofstream f(path);
  for (const SpanRecord& s : SpanLog::instance().spans()) {
    f << "{\"name\": \"" << s.name << "\", \"start_s\": " << s.start_s
      << ", \"end_s\": " << s.end_s << ", \"parent\": " << s.parent << "}\n";
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
