#include "sim/list_ops.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/merge_kernels.h"
#include "util/logging.h"

namespace htl {

// The algorithm cores live in sim/merge_kernels.h. This file instantiates
// them with std::vector storage and the SimilarityList
// validation/canonicalization of FromEntriesOrDie.

namespace {

kernel::EntrySpan Runs(const SimilarityList& l) {
  return kernel::EntrySpan{l.entries().data(), l.entries().size()};
}

template <typename Combine>
SimilarityList ZipMerge(const SimilarityList& a, const SimilarityList& b, double max,
                        Combine combine) {
  std::vector<SegmentId> pts;
  pts.reserve(2 * (a.entries().size() + b.entries().size()));
  std::vector<SimEntry> out;
  kernel::ZipMergeInto(Runs(a), Runs(b), combine, pts, out);
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
  kernel::NextShiftInto(Runs(g), out);
  return SimilarityList::FromEntriesOrDie(std::move(out), g.max());
}

std::vector<Interval> ThresholdSupport(const SimilarityList& g, double tau) {
  std::vector<Interval> support;
  kernel::ThresholdSupportInto(Runs(g), tau * g.max(), support);
  return support;
}

namespace {

// Shared backward sweep for until/eventually; see kernel::BackwardUntilSweepInto.
SimilarityList BackwardUntilSweep(const std::vector<Interval>& g_support, bool g_always,
                                  const SimilarityList& h) {
  std::vector<SegmentId> pts;
  pts.reserve(2 * (h.entries().size() + g_support.size()));
  std::vector<SimEntry> reversed;
  kernel::BackwardUntilSweepInto(kernel::IntervalSpan{g_support.data(), g_support.size()},
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
  kernel::ComplementInto(Runs(g), g.max(), bounds, out);
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
