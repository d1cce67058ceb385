#ifndef HTL_UTIL_STRING_UTIL_H_
#define HTL_UTIL_STRING_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace htl {

namespace internal_strings {
inline void AppendPieces(std::ostringstream&) {}
template <typename T, typename... Rest>
void AppendPieces(std::ostringstream& os, const T& head, const Rest&... rest) {
  os << head;
  AppendPieces(os, rest...);
}
}  // namespace internal_strings

/// Concatenates the streamable arguments into one string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  internal_strings::AppendPieces(os, args...);
  return os.str();
}

/// Splits on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// ASCII lowercase copy.
std::string AsciiToLower(std::string_view text);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Joins streamable elements with `sep`.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) os << sep;
    os << p;
    first = false;
  }
  return os.str();
}

/// Formats a double the way the paper's tables print similarity values
/// (fixed, `digits` decimals).
std::string FormatFixed(double v, int digits);

/// Formats a double as the shortest fixed-notation text that reads back as
/// exactly `v` ("1234567.5", "0.00001", "2"): the HTL lexer reads no
/// exponent. Past int64's range a ".0" is appended, so the integral text
/// still reads as a number instead of an out-of-range integer.
std::string FormatRoundTrip(double v);

/// Appends `s` to `*out` escaped for use inside a JSON string literal
/// (quotes, backslashes, and control characters; everything else verbatim —
/// the telemetry plane emits UTF-8 pass-through).
void AppendJsonEscaped(std::string* out, std::string_view s);

/// AppendJsonEscaped into a fresh string (no surrounding quotes).
std::string JsonEscaped(std::string_view s);

}  // namespace htl

#endif  // HTL_UTIL_STRING_UTIL_H_
