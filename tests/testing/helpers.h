#ifndef HTL_TESTS_TESTING_HELPERS_H_
#define HTL_TESTS_TESTING_HELPERS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "sim/sim_list.h"
#include "util/result.h"
#include "util/string_util.h"

namespace htl::testing {

/// Shorthand literal: L({{1, 4, 2.5}, {6, 6, 1.0}}, 10) builds a list with
/// entries [1,4]:2.5 and [6,6]:1.0, max 10.
struct EntrySpec {
  SegmentId begin;
  SegmentId end;
  double actual;
};

inline SimilarityList L(std::initializer_list<EntrySpec> specs, double max) {
  std::vector<SimEntry> entries;
  for (const EntrySpec& s : specs) {
    entries.push_back(SimEntry{Interval{s.begin, s.end}, s.actual});
  }
  return SimilarityList::FromEntriesOrDie(std::move(entries), max);
}

/// Exact equality with a readable failure message.
inline ::testing::AssertionResult ListsEqual(const SimilarityList& got,
                                             const SimilarityList& want) {
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "\n  got:  " << got.ToString() << "\n  want: " << want.ToString();
}

/// Pointwise near-equality (tolerance on actuals and max), entry structure
/// ignored — compares the functions id -> value over both lists' support.
inline ::testing::AssertionResult ListsNear(const SimilarityList& got,
                                            const SimilarityList& want,
                                            double tol = 1e-9) {
  auto fail = [&](const std::string& why) {
    return ::testing::AssertionFailure() << why << "\n  got:  " << got.ToString()
                                         << "\n  want: " << want.ToString();
  };
  if (std::abs(got.max() - want.max()) > tol) return fail("max differs");
  std::vector<SegmentId> points;
  for (const SimEntry& e : got.entries()) {
    points.push_back(e.range.begin);
    points.push_back(e.range.end);
  }
  for (const SimEntry& e : want.entries()) {
    points.push_back(e.range.begin);
    points.push_back(e.range.end);
  }
  for (SegmentId p : points) {
    for (SegmentId q : {p - 1, p, p + 1}) {
      if (q < 1) continue;
      if (std::abs(got.ActualAt(q) - want.ActualAt(q)) > tol) {
        return fail(StrCat("value differs at id ", q, ": got ", got.ActualAt(q),
                           ", want ", want.ActualAt(q)));
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Enables the process-wide metrics registry for one scope. The registry is
/// off by default, and other tests share its counters, so tests read them
/// as CounterDelta values.
struct ScopedMetrics {
  ScopedMetrics() { obs::MetricsRegistry::Instance().SetEnabled(true); }
  ~ScopedMetrics() { obs::MetricsRegistry::Instance().SetEnabled(false); }
};

/// Increments of one registry counter since construction.
class CounterDelta {
 public:
  explicit CounterDelta(std::string_view name)
      : counter_(obs::MetricsRegistry::Instance().GetCounter(name)),
        base_(counter_->Value()) {}
  int64_t value() const { return counter_->Value() - base_; }

 private:
  obs::Counter* counter_;
  int64_t base_;
};

/// Registry deltas of the result cache's six counters since construction.
struct ResultCacheCounts {
  CounterDelta hits{"cache.result.hits"};
  CounterDelta misses{"cache.result.misses"};
  CounterDelta stale{"cache.result.stale"};
  CounterDelta fills{"cache.result.fills"};
  CounterDelta evictions{"cache.result.evictions"};
  CounterDelta shared_waits{"cache.result.shared_waits"};

  std::string ToString() const {
    return StrCat("hits ", hits.value(), ", misses ", misses.value(), ", stale ",
                  stale.value(), ", fills ", fills.value(), ", evictions ",
                  evictions.value(), ", shared_waits ", shared_waits.value());
  }
};

inline std::string ErrorText(const Status& s) { return s.ToString(); }
template <typename T>
std::string ErrorText(const Result<T>& r) {
  return r.status().ToString();
}

/// Unwraps a Result in a test, failing fatally on error. Usage:
///   ASSERT_OK_AND_ASSIGN(auto list, engine.EvaluateList(2, *f));
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                               \
  ASSERT_OK_AND_ASSIGN_IMPL_(                                          \
      HTL_RESULT_CONCAT_(htl_test_tmp_, __LINE__), lhs, rexpr)
#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)                    \
  auto tmp = (rexpr);                                                  \
  ASSERT_TRUE(tmp.ok()) << ::htl::testing::ErrorText(tmp);             \
  lhs = std::move(tmp).value()

#define EXPECT_OK(expr)                                                       \
  do {                                                                        \
    const auto& htl_status_like_ = (expr);                                    \
    EXPECT_TRUE(htl_status_like_.ok())                                        \
        << ::htl::testing::ErrorText(htl_status_like_);                       \
  } while (0)

#define ASSERT_OK(expr)                                                       \
  do {                                                                        \
    const auto& htl_status_like_ = (expr);                                    \
    ASSERT_TRUE(htl_status_like_.ok())                                        \
        << ::htl::testing::ErrorText(htl_status_like_);                       \
  } while (0)

}  // namespace htl::testing

#endif  // HTL_TESTS_TESTING_HELPERS_H_
