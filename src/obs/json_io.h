// Minimal JSON reader (DOM) + shared writer helpers, zero dependencies.
//
// parse_json() is the one JSON grammar in the tree: exactly RFC 8259 —
// one top-level value, no trailing content, no comments, no trailing
// commas, no bare NaN/Inf, no raw control characters inside strings. The
// DSE result cache and the serve protocol read through it, and
// validate_json() is the same parse with the DOM discarded, so exporter
// regressions (TraceCollector, MetricsExporter) fail tests and the CLI
// smoke ctest instead of surfacing later as a Perfetto "could not parse"
// error. Numbers keep their raw source token so 64-bit counters (which do
// not fit a double) and 17-digit doubles both round-trip exactly.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ara::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  /// String contents (unescaped) for kString; the raw numeric token for
  /// kNumber.
  std::string text;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup (first match); null when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Numeric conversions (0 when not a number).
  double as_double() const;
  std::uint64_t as_u64() const;
};

/// Parse exactly one JSON value (plus surrounding whitespace). On failure
/// returns false and fills `*error` (if non-null) with "offset N: ...".
bool parse_json(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

/// True when `text` is exactly one valid JSON value (plus whitespace):
/// parse_json with the DOM discarded. On failure, `*error` (if non-null)
/// gets the same "offset N: ..." message.
bool validate_json(std::string_view text, std::string* error = nullptr);

// --- Writers ---
//
// The JSON emitters of the obs, dse and serve layers (result-cache
// entries, metrics snapshots, serve responses, the request log) append to
// one std::string through these helpers and hand the finished bytes on
// once. Numbers go through std::to_chars, so no stream state or locale is
// involved. (sim::TraceCollector sits below obs and keeps its own.)

/// Append `s` escaped as the inside of a JSON string (no quotes): `"` and
/// `\` and the control bytes below 0x20 are escaped (\b \f \n \r \t, the
/// rest as \u00xx); every other byte is copied as is, one append per
/// unescaped run.
void json_escape(std::string& out, std::string_view s);
/// Append `v` with `digits` (1-17) significant digits, the bytes printf
/// "%.*g" writes; 17 round-trips doubles exactly. NaN/Inf (invalid JSON)
/// degrade to 0.
void json_number(std::string& out, double v, int digits);
/// Append `v` in decimal.
void json_uint(std::string& out, std::uint64_t v);

/// `prefix` (the punctuation and quoted member name before a value, such
/// as `,"count":`) followed by the value: the step every emitter repeats.
void json_put(std::string& out, std::string_view prefix, std::uint64_t v);
void json_put(std::string& out, std::string_view prefix, double v,
              int digits);
/// A string value, quoted and escaped.
void json_put(std::string& out, std::string_view prefix, std::string_view v);

/// Stream adapter over the string writer, kept only for the benchmark
/// harness's span dump (perfbench/perfbench.cc), which writes to a
/// std::ofstream; every program emitter uses the string writers above.
inline void json_escape(std::ostream& os, std::string_view s) {
  std::string out;
  json_escape(out, s);
  os << out;
}

}  // namespace ara::obs
