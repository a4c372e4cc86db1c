#pragma once

// Minimal JSON reader for the service's one-line responses. Numbers are
// parsed with strtod from their exact text, so a double the server printed
// with %.17g reads back bit-identical.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< string value, or a number's source text
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue, std::less<>> members;

  /// Member by key, or a shared null value when absent / not an object.
  const JsonValue& operator[](std::string_view key) const;
  bool is_null() const noexcept { return kind == Kind::kNull; }
};

/// Parses one JSON document; throws std::runtime_error on malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace perfbench
