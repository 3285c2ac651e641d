#include "measure/json.h"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace fiveg::measure {

JsonWriter::JsonWriter(std::ostream& os) : os_(os) {}

void JsonWriter::prefix() {
  if (key_pending_) {
    // A key was just written; the value follows on the same line.
    key_pending_ = false;
    return;
  }
  if (stack_.empty()) return;
  if (stack_.back().has_elements) os_ << ",";
  os_ << "\n";
  indent();
  stack_.back().has_elements = true;
}

void JsonWriter::indent() {
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::begin_object() {
  prefix();
  os_ << "{";
  stack_.push_back({true, false});
}

void JsonWriter::end_object() {
  const bool had = stack_.back().has_elements;
  stack_.pop_back();
  if (had) {
    os_ << "\n";
    indent();
  }
  os_ << "}";
}

void JsonWriter::begin_array() {
  prefix();
  os_ << "[";
  stack_.push_back({false, false});
}

void JsonWriter::end_array() {
  const bool had = stack_.back().has_elements;
  stack_.pop_back();
  if (had) {
    os_ << "\n";
    indent();
  }
  os_ << "]";
}

void JsonWriter::key(std::string_view k) {
  prefix();
  os_ << '"' << escape(k) << "\": ";
  key_pending_ = true;
}

void JsonWriter::value(std::string_view v) {
  prefix();
  os_ << '"' << escape(v) << '"';
}

void JsonWriter::value(double v) {
  prefix();
  os_ << number(v);
}

void JsonWriter::value(std::uint64_t v) {
  prefix();
  os_ << v;
}

void JsonWriter::value(std::int64_t v) {
  prefix();
  os_ << v;
}

void JsonWriter::value(bool v) {
  prefix();
  os_ << (v ? "true" : "false");
}

void JsonWriter::null() {
  prefix();
  os_ << "null";
}

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonWriter::number(double v) {
  if (!std::isfinite(v)) return "null";
  // Integers (within exact double range) print without a fraction so that
  // counts stay readable; everything else round-trips via %.17g.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace fiveg::measure
