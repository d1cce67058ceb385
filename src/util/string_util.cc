#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <iterator>

namespace htl {

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t b = 0;
  while (b < text.size() && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  size_t e = text.size();
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string AsciiToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string FormatFixed(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

std::string FormatRoundTrip(double v) {
  char buf[512];  // Any double's fixed text fits: at most 327 characters.
  const std::to_chars_result r =
      std::to_chars(buf, std::end(buf), v, std::chars_format::fixed);
  std::string out(buf, r.ptr);
  if (std::isfinite(v) && std::fabs(v) >= 0x1p63) out += ".0";
  return out;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          *out += "\\u00";
          out->push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
          out->push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
        } else {
          out->push_back(c);
        }
    }
  }
}

std::string JsonEscaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

}  // namespace htl
