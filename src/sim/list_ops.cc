#include "sim/list_ops.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "obs/metrics.h"
#include "util/interval.h"
#include "util/logging.h"

namespace htl {

namespace {

// Algorithm cores of the similarity-list operators (the section 3.1 linear
// sweeps) behind the entry points below.
//
// Inputs are runs of a canonical SimilarityList (sorted, disjoint,
// actual > 0, adjacent equal runs merged). Outputs are raw runs: sorted,
// disjoint, actual > 0, but adjacent equal-valued runs are NOT merged
// here — the entry points canonicalize in SimilarityList::FromEntriesOrDie.
// Every kernel's output size is bounded by the limits documented per
// function, so callers can reserve exactly.

/// Contiguous view over a list's entries (std::span without <span>).
struct EntrySpan {
  const SimEntry* data = nullptr;
  size_t size = 0;

  const SimEntry* begin() const { return data; }
  const SimEntry* end() const { return data + size; }
  const SimEntry& operator[](size_t i) const { return data[i]; }
  bool empty() const { return size == 0; }
};

struct IntervalSpan {
  const Interval* data = nullptr;
  size_t size = 0;

  const Interval* begin() const { return data; }
  const Interval* end() const { return data + size; }
  const Interval& operator[](size_t i) const { return data[i]; }
};

/// Forward cursor over a list's entries: value lookups at non-decreasing
/// ids in amortized O(1).
class RunCursor {
 public:
  explicit RunCursor(EntrySpan entries) : entries_(entries) {}

  double ValueAt(SegmentId id) {
    while (i_ < entries_.size && entries_[i_].range.end < id) ++i_;
    if (i_ < entries_.size && entries_[i_].range.Contains(id)) return entries_[i_].actual;
    return 0.0;
  }

 private:
  EntrySpan entries_;
  size_t i_ = 0;
};

/// All ids where either list's value may change: entry begins and ends+1,
/// sorted and deduplicated. Appends to `pts` (caller passes it empty).
/// Output size <= 2 * (a.size + b.size).
void CriticalPointsInto(EntrySpan a, EntrySpan b, std::vector<SegmentId>& pts) {
  for (const SimEntry& e : a) {
    pts.push_back(e.range.begin);
    pts.push_back(e.range.end + 1);
  }
  for (const SimEntry& e : b) {
    pts.push_back(e.range.begin);
    pts.push_back(e.range.end + 1);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
}

/// Runs Combine(va, vb) over every maximal run where both inputs are
/// constant. `pts` is scratch (passed empty); `out` receives raw runs.
/// Output size <= 2 * (a.size + b.size) - 1.
template <typename Combine>
void ZipMergeInto(EntrySpan a, EntrySpan b, Combine combine, std::vector<SegmentId>& pts,
                  std::vector<SimEntry>& out) {
  CriticalPointsInto(a, b, pts);
  RunCursor ca(a), cb(b);
  for (size_t i = 0; i + 1 < pts.size(); ++i) {
    const Interval run{pts[i], pts[i + 1] - 1};
    const double v = combine(ca.ValueAt(run.begin), cb.ValueAt(run.begin));
    if (v > 0.0) out.push_back(SimEntry{run, v});
  }
}

/// Shifts every run one id toward the sequence start (`next` over lists).
/// Output size <= g.size.
void NextShiftInto(EntrySpan g, std::vector<SimEntry>& out) {
  for (const SimEntry& e : g) {
    Interval shifted{std::max<SegmentId>(1, e.range.begin - 1), e.range.end - 1};
    if (!shifted.empty()) out.push_back(SimEntry{shifted, e.actual});
  }
}

/// The coalesced id set where `g` clears `cutoff` (= tau * g's max).
/// Output size <= g.size.
void ThresholdSupportInto(EntrySpan g, double cutoff, std::vector<Interval>& support) {
  for (const SimEntry& e : g) {
    if (e.actual + 1e-12 < cutoff) continue;
    if (support.size() > 0 &&
        (support.back().Adjacent(e.range) || support.back().end >= e.range.begin)) {
      support.back().end = std::max(support.back().end, e.range.end);
    } else {
      support.push_back(e.range);
    }
  }
}

/// Shared backward sweep for until/eventually. `g_support` is the coalesced
/// id set where the left operand clears the threshold; when
/// `g_always == true` the support is the whole axis (eventually). `pts` is
/// scratch (passed empty); `out` receives raw runs in *reverse* order — the
/// caller reverses (and the heap caller validates via FromEntries).
/// Output size <= 2 * (h.size + g_support.size).
void BackwardUntilSweepInto(IntervalSpan g_support, bool g_always, EntrySpan h,
                            std::vector<SegmentId>& pts, std::vector<SimEntry>& out) {
  // Critical points of h and of the support intervals.
  for (const SimEntry& e : h) {
    pts.push_back(e.range.begin);
    pts.push_back(e.range.end + 1);
  }
  for (const Interval& iv : g_support) {
    pts.push_back(iv.begin);
    pts.push_back(iv.end + 1);
  }
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  if (pts.size() < 2) return;

  // Constant-value runs, scanned right-to-left. `carry` is f(run.end + 1).
  // Runs above the last critical point and gaps between runs are handled by
  // the fact that every boundary is a critical point; beyond the top, f = 0
  // unless g_always (where carry just stays whatever the suffix max is — it
  // starts at 0 there too since h is 0 beyond its last entry).
  double carry = 0.0;
  size_t hi = h.size;
  size_t gi = g_support.size;
  for (size_t p = pts.size() - 1; p-- > 0;) {
    const Interval run{pts[p], pts[p + 1] - 1};
    while (hi > 0 && h[hi - 1].range.begin > run.begin) --hi;
    double hv = 0.0;
    if (hi > 0 && h[hi - 1].range.Contains(run.begin)) hv = h[hi - 1].actual;
    bool gok = g_always;
    if (!gok) {
      while (gi > 0 && g_support[gi - 1].begin > run.begin) --gi;
      gok = gi > 0 && g_support[gi - 1].Contains(run.begin);
    }
    const double res = gok ? std::max(hv, carry) : hv;
    carry = res;
    if (res > 0.0) out.push_back(SimEntry{run, res});
  }
  // Below the lowest critical point h is zero, so f(u) = carry wherever the
  // left operand holds. For `eventually` (g_always) that extends the final
  // carry down to id 1; for `until` those ids lie outside every support
  // interval and carry nothing.
  if (g_always && carry > 0.0 && pts[0] > 1) {
    out.push_back(SimEntry{Interval{1, pts[0] - 1}, carry});
  }
}

/// Complement over `bounds`: gaps get g_max, covered runs g_max - actual.
/// Output size <= 2 * g.size + 1.
void ComplementInto(EntrySpan g, double g_max, const Interval& bounds,
                    std::vector<SimEntry>& out) {
  if (bounds.empty()) return;
  SegmentId cursor = bounds.begin;
  auto emit = [&](const Interval& range, double value) {
    Interval cut = range.Intersect(bounds);
    if (cut.empty() || value <= 0.0) return;
    out.push_back(SimEntry{cut, value});
  };
  for (const SimEntry& e : g) {
    if (e.range.begin > cursor) emit(Interval{cursor, e.range.begin - 1}, g_max);
    emit(e.range, g_max - e.actual);
    cursor = std::max(cursor, e.range.end + 1);
    if (cursor > bounds.end) break;
  }
  if (cursor <= bounds.end) emit(Interval{cursor, bounds.end}, g_max);
}

EntrySpan Runs(const SimilarityList& l) {
  return EntrySpan{l.entries().data(), l.entries().size()};
}

template <typename Combine>
SimilarityList ZipMerge(const SimilarityList& a, const SimilarityList& b, double max,
                        Combine combine) {
  std::vector<SegmentId> pts;
  pts.reserve(2 * (a.entries().size() + b.entries().size()));
  std::vector<SimEntry> out;
  ZipMergeInto(Runs(a), Runs(b), combine, pts, out);
  return SimilarityList::FromEntriesOrDie(std::move(out), max);
}

}  // namespace

SimilarityList AndMerge(const SimilarityList& g, const SimilarityList& h) {
  HTL_OBS_COUNT("sim.and_merge.calls", 1);
  HTL_OBS_COUNT("sim.and_merge.entries_in", g.length() + h.length());
  return ZipMerge(g, h, g.max() + h.max(), [](double a, double b) { return a + b; });
}

SimilarityList FuzzyMinAndMerge(const SimilarityList& g, const SimilarityList& h) {
  HTL_OBS_COUNT("sim.fuzzy_and_merge.calls", 1);
  HTL_OBS_COUNT("sim.fuzzy_and_merge.entries_in", g.length() + h.length());
  const double mg = g.max();
  const double mh = h.max();
  const double out_max = mg + mh;
  return ZipMerge(g, h, out_max, [=](double a, double b) {
    const double frac_g = mg > 0 ? a / mg : 0.0;
    const double frac_h = mh > 0 ? b / mh : 0.0;
    return std::min(frac_g, frac_h) * out_max;
  });
}

SimilarityList OrMerge(const SimilarityList& g, const SimilarityList& h) {
  HTL_OBS_COUNT("sim.or_merge.calls", 1);
  HTL_OBS_COUNT("sim.or_merge.entries_in", g.length() + h.length());
  return ZipMerge(g, h, std::max(g.max(), h.max()),
                  [](double a, double b) { return std::max(a, b); });
}

SimilarityList NextShift(const SimilarityList& g) {
  HTL_OBS_COUNT("sim.next_shift.calls", 1);
  std::vector<SimEntry> out;
  out.reserve(g.entries().size());
  NextShiftInto(Runs(g), out);
  return SimilarityList::FromEntriesOrDie(std::move(out), g.max());
}

std::vector<Interval> ThresholdSupport(const SimilarityList& g, double tau) {
  std::vector<Interval> support;
  ThresholdSupportInto(Runs(g), tau * g.max(), support);
  return support;
}

namespace {

// Shared backward sweep for until/eventually; see BackwardUntilSweepInto.
SimilarityList BackwardUntilSweep(const std::vector<Interval>& g_support, bool g_always,
                                  const SimilarityList& h) {
  std::vector<SegmentId> pts;
  pts.reserve(2 * (h.entries().size() + g_support.size()));
  std::vector<SimEntry> reversed;
  BackwardUntilSweepInto(IntervalSpan{g_support.data(), g_support.size()},
                                 g_always, Runs(h), pts, reversed);
  std::reverse(reversed.begin(), reversed.end());
  return SimilarityList::FromEntriesOrDie(std::move(reversed), h.max());
}

}  // namespace

SimilarityList UntilMerge(const SimilarityList& g, const SimilarityList& h, double tau) {
  HTL_OBS_COUNT("sim.until_merge.calls", 1);
  HTL_OBS_COUNT("sim.until_merge.entries_in", g.length() + h.length());
  return BackwardUntilSweep(ThresholdSupport(g, tau), /*g_always=*/false, h);
}

SimilarityList Eventually(const SimilarityList& h) {
  HTL_OBS_COUNT("sim.eventually.calls", 1);
  HTL_OBS_COUNT("sim.eventually.entries_in", h.length());
  return BackwardUntilSweep({}, /*g_always=*/true, h);
}

SimilarityList Complement(const SimilarityList& g, const Interval& bounds) {
  HTL_OBS_COUNT("sim.complement.calls", 1);
  std::vector<SimEntry> out;
  ComplementInto(Runs(g), g.max(), bounds, out);
  return SimilarityList::FromEntriesOrDie(std::move(out), g.max());
}

SimilarityList MultiMax(std::vector<SimilarityList> lists) {
  HTL_OBS_COUNT("sim.multi_max.calls", 1);
  if (lists.empty()) return SimilarityList(0.0);
  // Tournament merge: each of the ceil(log2 m) rounds touches every entry
  // once, giving the O(l log m) bound of section 3.2.
  while (lists.size() > 1) {
    std::vector<SimilarityList> next;
    next.reserve((lists.size() + 1) / 2);
    for (size_t i = 0; i + 1 < lists.size(); i += 2) {
      next.push_back(OrMerge(lists[i], lists[i + 1]));
    }
    if (lists.size() % 2 == 1) next.push_back(std::move(lists.back()));
    lists = std::move(next);
  }
  return std::move(lists.front());
}

}  // namespace htl
