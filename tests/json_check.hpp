// Minimal JSON well-formedness check for tests: objects, arrays, strings,
// numbers and literals, with no semantic validation.  The unit tests, the
// trace smoke check and the flow-trace check use it on every artifact the
// program writes.
#pragma once

#include <cctype>
#include <cstddef>
#include <string_view>

namespace test_support {

/// Recursive-descent JSON well-formedness checker (no semantics, no DOM).
struct JsonChecker {
  std::string_view text;
  std::size_t i = 0;

  void skip_ws() {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  }

  bool string() {
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    while (i < text.size()) {
      const char c = text[i];
      if (c == '\\') {
        if (i + 1 >= text.size()) return false;
        i += 2;
        continue;
      }
      ++i;
      if (c == '"') return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(i, word.size()) != word) return false;
    i += word.size();
    return true;
  }

  bool number() {
    const std::size_t start = i;
    if (i < text.size() && text[i] == '-') ++i;
    std::size_t digits = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++i;
      ++digits;
    }
    if (digits == 0) return false;
    if (i < text.size() && text[i] == '.') {
      ++i;
      digits = 0;
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i]))) {
        ++i;
        ++digits;
      }
      if (digits == 0) return false;
    }
    if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
      ++i;
      if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
      digits = 0;
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i]))) {
        ++i;
        ++digits;
      }
      if (digits == 0) return false;
    }
    return i > start;
  }

  bool value(int depth) {  // NOLINT(misc-no-recursion)
    if (depth > 256) return false;
    skip_ws();
    if (i >= text.size()) return false;
    const char c = text[i];
    if (c == '"') return string();
    if (c == '{') {
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == '}') {
        ++i;
        return true;
      }
      while (true) {
        skip_ws();
        if (!string()) return false;
        skip_ws();
        if (i >= text.size() || text[i] != ':') return false;
        ++i;
        if (!value(depth + 1)) return false;
        skip_ws();
        if (i < text.size() && text[i] == ',') {
          ++i;
          continue;
        }
        break;
      }
      if (i >= text.size() || text[i] != '}') return false;
      ++i;
      return true;
    }
    if (c == '[') {
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == ']') {
        ++i;
        return true;
      }
      while (true) {
        if (!value(depth + 1)) return false;
        skip_ws();
        if (i < text.size() && text[i] == ',') {
          ++i;
          continue;
        }
        break;
      }
      if (i >= text.size() || text[i] != ']') return false;
      ++i;
      return true;
    }
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
};

/// True iff `text` is one complete JSON value.
inline bool json_parse_ok(std::string_view text) {
  JsonChecker checker{text};
  if (!checker.value(0)) return false;
  checker.skip_ws();
  return checker.i == text.size();
}

}  // namespace test_support
