#ifndef HTL_SIM_MERGE_KERNELS_H_
#define HTL_SIM_MERGE_KERNELS_H_

#include <algorithm>
#include <cstddef>

#include "sim/sim_list.h"
#include "util/interval.h"

namespace htl {
namespace kernel {

/// Algorithm cores of the similarity-list operators (the section 3.1
/// linear sweeps) behind the entry points in list_ops.cc, their only
/// caller.
///
/// Inputs are runs of a canonical SimilarityList (sorted, disjoint,
/// actual > 0, adjacent equal runs merged). Outputs are raw runs: sorted,
/// disjoint, actual > 0, but adjacent equal-valued runs are NOT merged
/// here — list_ops.cc canonicalizes in SimilarityList::FromEntries.
///
/// The `Vec` template parameters need push_back/size/operator[]/back and
/// value-type SimEntry, Interval, or SegmentId as named; list_ops.cc
/// passes std::vector. Every kernel's output size is bounded by the limits
/// documented per function, so callers can reserve exactly.

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
template <typename PtsVec>
void CriticalPointsInto(EntrySpan a, EntrySpan b, PtsVec& pts) {
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
template <typename Combine, typename PtsVec, typename OutVec>
void ZipMergeInto(EntrySpan a, EntrySpan b, Combine combine, PtsVec& pts, OutVec& out) {
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
template <typename OutVec>
void NextShiftInto(EntrySpan g, OutVec& out) {
  for (const SimEntry& e : g) {
    Interval shifted{std::max<SegmentId>(1, e.range.begin - 1), e.range.end - 1};
    if (!shifted.empty()) out.push_back(SimEntry{shifted, e.actual});
  }
}

/// The coalesced id set where `g` clears `cutoff` (= tau * g's max).
/// Output size <= g.size.
template <typename IntervalVec>
void ThresholdSupportInto(EntrySpan g, double cutoff, IntervalVec& support) {
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
template <typename PtsVec, typename OutVec>
void BackwardUntilSweepInto(IntervalSpan g_support, bool g_always, EntrySpan h,
                            PtsVec& pts, OutVec& out) {
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
template <typename OutVec>
void ComplementInto(EntrySpan g, double g_max, const Interval& bounds, OutVec& out) {
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

/// Clips every run to `bounds`. Output size <= g.size.
template <typename OutVec>
void ClipInto(EntrySpan g, const Interval& bounds, OutVec& out) {
  for (const SimEntry& e : g) {
    Interval cut = e.range.Intersect(bounds);
    if (!cut.empty()) out.push_back(SimEntry{cut, e.actual});
  }
}

}  // namespace kernel
}  // namespace htl

#endif  // HTL_SIM_MERGE_KERNELS_H_
