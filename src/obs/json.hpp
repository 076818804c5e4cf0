// Minimal deterministic JSON document builder.
//
// Just enough JSON for the observability exporters and BENCH_*.json
// reports: insertion-ordered objects (so emitted files diff cleanly),
// shortest-round-trip double formatting via %.17g (so two runs that
// compute identical doubles serialize identically byte-for-byte — the
// property the cross-schedule golden test relies on), and no parsing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sp::obs {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kUint,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;
  JsonValue(bool b) : kind_(Kind::kBool), int_(b ? 1 : 0) {}
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(unsigned v) : kind_(Kind::kUint), int_(v) {}
  JsonValue(long v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(unsigned long v)
      : kind_(Kind::kUint), int_(static_cast<std::int64_t>(v)) {}
  JsonValue(long long v) : kind_(Kind::kInt), int_(v) {}
  JsonValue(unsigned long long v)
      : kind_(Kind::kUint), int_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : kind_(Kind::kDouble), dbl_(v) {}
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}
  JsonValue(std::string_view s) : kind_(Kind::kString), str_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }

  /// Object access: inserts the key (preserving insertion order) if
  /// absent. A null value silently becomes an object first, so
  /// `root["a"]["b"] = 1` builds the path.
  JsonValue& operator[](std::string_view key);

  /// Object lookup without insertion; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Array append. A null value silently becomes an array first.
  void push(JsonValue v);

  /// Last array element (array must be non-empty).
  JsonValue& back();

  std::size_t size() const;

  /// Compact serialization (no whitespace). Deterministic: objects keep
  /// insertion order, doubles print with %.17g, non-finite doubles emit
  /// null (JSON has no NaN/Inf).
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Appends a JSON string literal (quotes + escapes) — shared with the
  /// streaming exporters in export.cpp.
  static void append_escaped(std::string& out, std::string_view s);
  /// Appends a deterministic double literal (%.17g; null if non-finite).
  static void append_double(std::string& out, double v);

 private:
  Kind kind_ = Kind::kNull;
  std::int64_t int_ = 0;  // bool/int storage (uint64 stored bit-exact)
  double dbl_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

}  // namespace sp::obs
