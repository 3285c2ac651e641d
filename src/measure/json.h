// Minimal streaming JSON writer for machine-readable experiment results.
// Produces deterministic output: stable key order is the caller's job, and
// number formatting is byte-stable for a given value (integers print as
// integers, other finite doubles round-trip via %.17g, non-finite -> null).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace fiveg::measure {

/// Streaming writer with a container stack: begin/end objects and arrays,
/// interleave key() and value() calls. Pretty-prints with 2-space indent.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next object member (must be inside an object).
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();

  /// key() + value() in one call.
  template <typename T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  /// JSON string escaping (quotes, backslash, control characters); UTF-8
  /// payload bytes pass through untouched.
  static std::string escape(std::string_view s);

  /// Byte-stable number rendering; NaN/Inf render as "null".
  static std::string number(double v);

 private:
  void prefix();  // comma/newline/indent before a new element
  void indent();

  std::ostream& os_;
  // One frame per open container: is_object, and whether it has elements.
  struct Frame {
    bool object = false;
    bool has_elements = false;
  };
  std::vector<Frame> stack_;
  bool key_pending_ = false;
};

}  // namespace fiveg::measure
