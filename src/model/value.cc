#include "model/value.h"

#include "util/string_util.h"

namespace htl {

std::string AttrValue::ToString() const {
  if (is_null()) return "null";
  if (is_int()) return StrCat(AsInt());
  if (is_double()) return FormatRoundTrip(AsDouble());
  // Quoted the way the lexer reads it back: '' escapes an embedded quote.
  std::string out = "'";
  for (const char c : AsString()) {
    out += c;
    if (c == '\'') out += '\'';
  }
  out += '\'';
  return out;
}

}  // namespace htl
