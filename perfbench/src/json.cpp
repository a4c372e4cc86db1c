#include "json.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at offset " + std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end");
    JsonValue value;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      value.kind = JsonValue::Kind::kObject;
      if (consume('}')) return value;
      do {
        skip_space();
        std::string key = parse_string();
        expect(':');
        value.members[std::move(key)] = parse_value();
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      value.kind = JsonValue::Kind::kArray;
      if (consume(']')) return value;
      do {
        value.items.push_back(parse_value());
      } while (consume(','));
      expect(']');
    } else if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      value.text = parse_string();
    } else if (literal("true")) {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
    } else if (literal("false")) {
      value.kind = JsonValue::Kind::kBool;
    } else if (literal("null")) {
      value.kind = JsonValue::Kind::kNull;
    } else {
      const std::size_t begin = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
              text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E')) {
        ++pos_;
      }
      if (pos_ == begin) fail("unexpected character");
      value.kind = JsonValue::Kind::kNumber;
      value.text = std::string(text_.substr(begin, pos_ - begin));
      char* end = nullptr;
      value.number = std::strtod(value.text.c_str(), &end);
      if (end != value.text.c_str() + value.text.size()) fail("malformed number");
    }
    return value;
  }

  std::string parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            // Control characters only in this protocol; keep them verbatim.
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            c = static_cast<char>(std::strtol(std::string(text_.substr(pos_, 4)).c_str(),
                                              nullptr, 16));
            pos_ += 4;
            break;
          default: c = e;
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue& JsonValue::operator[](std::string_view key) const {
  static const JsonValue kNull;
  if (kind != Kind::kObject) return kNull;
  const auto it = members.find(key);
  return it == members.end() ? kNull : it->second;
}

JsonValue parse_json(std::string_view text) { return Parser(text).document(); }

}  // namespace perfbench
