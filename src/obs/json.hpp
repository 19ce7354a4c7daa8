#pragma once

// Minimal ordered JSON document builder, used for the machine-readable
// bench summaries and the trace sink. Insertion order is preserved and
// doubles are formatted deterministically, so two runs with identical
// values serialize byte-for-byte identically.
//
// Parse() is the matching reader: it accepts full JSON (the superset of
// what Dump emits), preserves member order, and fails closed with a
// byte-offset error message. The trace tests read the sink's JSONL lines
// back through it.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace quicksand::obs {

/// An ordered JSON value (null, bool, number, string, array or object).
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

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}                // NOLINT
  JsonValue(std::int64_t value) : kind_(Kind::kInt), int_(value) {}          // NOLINT
  JsonValue(std::uint64_t value) : kind_(Kind::kUint), uint_(value) {}       // NOLINT
  JsonValue(int value) : JsonValue(static_cast<std::int64_t>(value)) {}      // NOLINT
  JsonValue(double value) : kind_(Kind::kDouble), double_(value) {}          // NOLINT
  JsonValue(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}  // NOLINT
  JsonValue(std::string_view value) : JsonValue(std::string(value)) {}       // NOLINT
  JsonValue(const char* value) : JsonValue(std::string(value)) {}            // NOLINT

  [[nodiscard]] static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  [[nodiscard]] static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }

  /// Parses a complete JSON document (trailing whitespace allowed,
  /// anything else after the value is an error). On failure returns
  /// nullopt and, when `error` is non-null, a "byte N: reason" message.
  [[nodiscard]] static std::optional<JsonValue> Parse(std::string_view text,
                                                     std::string* error = nullptr);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  [[nodiscard]] bool IsObject() const noexcept { return kind_ == Kind::kObject; }
  [[nodiscard]] bool IsArray() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool IsString() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool IsNumber() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }

  /// Object member lookup (first match, linear); nullptr when absent or
  /// not an object.
  [[nodiscard]] const JsonValue* Find(std::string_view key) const noexcept;

  /// The string payload ("" for non-strings).
  [[nodiscard]] const std::string& AsString() const noexcept { return string_; }
  /// Numeric payload widened to double (0.0 for non-numbers).
  [[nodiscard]] double AsDouble() const noexcept;
  /// Integer payload (0 for non-integer kinds; kUint saturates the cast).
  [[nodiscard]] std::int64_t AsInt() const noexcept;
  [[nodiscard]] bool AsBool() const noexcept { return bool_; }

  /// Appends an object member (no duplicate-key check; callers own order).
  JsonValue& Set(std::string key, JsonValue value);
  /// Appends an array element.
  JsonValue& Append(JsonValue value);

  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  [[nodiscard]] const std::vector<JsonValue>& elements() const { return elements_; }

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string Dump(int indent = 0) const;

  /// Escapes a string for inclusion in a JSON document (no quotes added).
  [[nodiscard]] static std::string Escape(std::string_view raw);

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> elements_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace quicksand::obs
