#ifndef HTL_SQL_VALUE_H_
#define HTL_SQL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace htl::sql {

/// A dynamically typed SQL value: NULL, INTEGER, REAL, or TEXT. The mini
/// relational engine is dynamically typed (like SQLite): columns carry no
/// declared type and any cell can hold any value.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  Value(int64_t v) : data_(v) {}                  // NOLINT(runtime/explicit)
  Value(int v) : data_(static_cast<int64_t>(v)) {}  // NOLINT(runtime/explicit)
  Value(double v) : data_(v) {}                   // NOLINT(runtime/explicit)
  Value(std::string v) : data_(std::move(v)) {}   // NOLINT(runtime/explicit)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT(runtime/explicit)
  Value(bool) = delete;  // Booleans are tri-state in SQL; use FromBool.

  static Value Null() { return Value(); }
  static Value FromBool(bool b) { return Value(static_cast<int64_t>(b ? 1 : 0)); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_numeric() const { return is_int() || is_double(); }

  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// SQL truthiness: non-zero numerics are true; NULL and strings are false.
  bool Truthy() const;

  /// SQL equality (NULL never equals anything — callers handle three-valued
  /// logic; this returns plain boolean with NULLs unequal).
  friend bool operator==(const Value& a, const Value& b);

  /// Total ordering for comparisons, MAX and the range join's sort:
  /// NULL < numerics < strings.
  static int Compare(const Value& a, const Value& b);

  /// Key string for hash joins and GROUP BY.
  std::string Key() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

}  // namespace htl::sql

#endif  // HTL_SQL_VALUE_H_
