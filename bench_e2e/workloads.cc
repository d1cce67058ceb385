#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "engine/retrieval.h"
#include "htl/ast.h"
#include "htl/classifier.h"
#include "util/string_util.h"
#include "workload/casablanca.h"
#include "workload/formula_gen.h"

namespace e2e {

using htl::MetadataStore;
using htl::Rng;
using htl::net::QueryKind;

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  // SplitMix64 finalizer over seed ^ tag-scaled golden ratio.
  uint64_t z = seed ^ (tag * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Scale Scale::Full() {
  Scale s;
  s.front_end_pool = 256;
  s.selective_videos = 10'000;
  s.broad_videos = 600;
  s.churn_videos = 1'000;
  s.churn_period = 1000;
  // 0.5% of the store per append: 50 videos on 10^4, scaled to this store.
  s.churn_batch = 5;
  s.replay_front_end = 2000;
  s.replay_selective = 64;
  s.replay_broad = 64;
  s.replay_churn = 1050;
  return s;
}

Scale Scale::Smoke() {
  Scale s;
  s.front_end_pool = 32;
  s.selective_videos = 600;
  s.broad_videos = 200;
  s.churn_videos = 150;
  s.churn_period = 40;
  s.churn_batch = 5;
  s.replay_front_end = 60;
  s.replay_selective = 12;
  s.replay_broad = 12;
  s.replay_churn = 50;
  return s;
}

int Workload::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(it - cdf.begin(),
                                                   static_cast<std::ptrdiff_t>(cdf.size()) - 1));
}

void Workload::Append(int index, MetadataStore* target) const {
  htl::CorpusGenOptions b = batch;
  b.seed = SubSeed(seed, 1000 + static_cast<uint64_t>(index));
  htl::GenerateCorpus(b, target);
}

MetadataStore Workload::StoreAt(int mutations) const {
  MetadataStore out;
  htl::GenerateCorpus(corpus, &out);
  for (int i = 1; i <= mutations; ++i) Append(i, &out);
  return out;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"front_end", "corpus_selective",
                                                 "corpus_broad", "cached_churn"};
  return names;
}

namespace {

/// front_end's mix. kSql requests cost about 3 ms against 0.4 ms for the
/// median HTL request, so at 2% they form the tail latency_p99_ms reports.
/// Both shares are assumptions about the callers, not measured traffic.
constexpr double kSqlShare = 0.02;
constexpr double kQuery1Share = 0.02;
constexpr int64_t kSqlN = 100;
constexpr int64_t kSqlEntries = 10;
/// Limits on one generated front_end formula: bound object variables, and
/// rows merged per video.
constexpr size_t kMaxPoolObjectVars = 3;
constexpr int64_t kMaxPoolRowsPerVideo = 2000;

// Fixed query texts for the generated corpora. Extended conjunctive texts
// run at level 2 so `at-next-level` descends to the annotated leaves at
// level 3; everything else runs on the leaves.
struct FixedQuery {
  const char* text;
  const char* label;  // Expected FormulaClassName.
  int level;
};

// Dense: nearly every text has a `present` or freeze atom that most objects
// satisfy, so most videos can reach a high fraction, bounds stay near 1 and
// pruning skips little.
const FixedQuery kBroad[] = {
    {"exists x (present(x)) and eventually exists y (moving(y))", "type(1)", 3},
    {"exists x (present(x)) until exists y (armed(y))", "type(1)", 3},
    {"exists x (present(x) and moving(x)) and eventually exists y (type(y) = 'train')",
     "type(1)", 3},
    {"eventually exists x (present(x) and armed(x))", "type(1)", 3},
    {"exists x (present(x) until moving(x))", "type(2)", 3},
    {"exists x (present(x) and eventually armed(x))", "type(2)", 3},
    {"exists x (present(x) and eventually moving(x))", "type(2)", 3},
    {"exists x, y (present(x) and eventually close_up(x, y))", "type(2)", 3},
    {"exists z (type(z) = 'person' and [h <- height(z)] eventually (present(z) and "
     "height(z) > h))",
     "conjunctive", 3},
    {"exists z (type(z) = 'train' and [h <- height(z)] next (present(z) and height(z) >= h))",
     "conjunctive", 3},
    {"exists z (moving(z) and [h <- height(z)] eventually (armed(z) and height(z) = h))",
     "conjunctive", 3},
    {"exists z (type(z) = 'horse' and [h <- height(z)] next (present(z) and height(z) = h))",
     "conjunctive", 3},
    {"at-next-level (exists x (present(x) and eventually moving(x)))",
     "extended-conjunctive", 2},
    {"at-next-level (exists x (present(x)) until exists y (armed(y)))",
     "extended-conjunctive", 2},
    {"at-next-level (exists x, y (present(x) and eventually close_up(x, y)))",
     "extended-conjunctive", 2},
    {"at-next-level (exists x (present(x) and eventually armed(x)))",
     "extended-conjunctive", 2},
};

// Selective: only the rare markers GenerateCorpus plants in ~5% of videos
// score, so every unmarked video's bound falls below the floor.
const FixedQuery kSelective[] = {
    {"exists x (type(x) = 'zeppelin' and rare_event(x))", "type(1)", 0},
    {"exists x (type(x) = 'zeppelin')", "type(1)", 0},
    {"exists x (type(x) = 'zeppelin' and eventually rare_event(x))", "type(2)", 0},
    {"eventually exists x (type(x) = 'zeppelin' and rare_event(x))", "type(1)", 0},
    {"exists x (type(x) = 'zeppelin') and eventually exists y (rare_event(y))", "type(1)", 0},
    {"exists x (type(x) = 'zeppelin' @ 3 and rare_event(x) @ 2)", "type(1)", 0},
    {"exists x (rare_event(x)) until exists y (type(y) = 'zeppelin')", "type(1)", 0},
    {"exists x (type(x) = 'zeppelin' and rare_event(x) and moving(x))", "type(1)", 0},
};

// Weighted variants that round cached_churn's pool out to 32 texts. The
// first looks for the marker only appended videos carry (Churn), so its
// answer changes with appends and a stale cached result would show.
const FixedQuery kVariants[] = {
    {"exists x (type(x) = 'airship')", "type(1)", 3},
    {"exists x (armed(x) @ 3 and type(x) = 'train' @ 1.5)", "type(1)", 3},
    {"eventually exists x (type(x) = 'horse' and moving(x) @ 2)", "type(1)", 3},
    {"exists x (type(x) = 'airplane') until exists y (armed(y) @ 2)", "type(1)", 3},
    {"exists x (moving(x) until armed(x) @ 2)", "type(2)", 3},
    {"exists x, y (present(x) and present(y) and close_up(x, y) @ 2)", "type(1)", 3},
    {"exists z (type(z) = 'horse' and [h <- height(z)] eventually (present(z) and "
     "height(z) <= h))",
     "conjunctive", 3},
    {"at-next-level (exists x (armed(x) @ 2 and type(x) = 'person'))",
     "extended-conjunctive", 2},
};

htl::Result<std::string> ClassOf(const htl::Retriever& retriever, const std::string& text) {
  HTL_ASSIGN_OR_RETURN(htl::FormulaPtr f, retriever.Prepare(text));
  return std::string(htl::FormulaClassName(htl::Classify(*f)));
}

htl::Result<QuerySpec> Fixed(const htl::Retriever& retriever, const FixedQuery& q,
                             int level) {
  HTL_ASSIGN_OR_RETURN(std::string label, ClassOf(retriever, q.text));
  if (label != q.label) {
    return htl::Status::Internal(htl::StrCat("query '", q.text, "' classifies as ", label,
                                             ", declared ", q.label));
  }
  return QuerySpec{q.text, QueryKind::kHtlSegments, level, label};
}

std::vector<double> UniformCdf(size_t n) {
  std::vector<double> cdf(n);
  for (size_t i = 0; i < n; ++i) cdf[i] = static_cast<double>(i + 1) / static_cast<double>(n);
  cdf.back() = 1.0;
  return cdf;
}

std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;
  return cdf;
}

// --- front_end formula pool ---------------------------------------------

double Weight(Rng& rng) { return static_cast<double>(rng.UniformInt(1, 8)) / 2.0; }

// One constraint over object variable `x` from the generated vocabulary.
htl::FormulaPtr ObjectAtom(Rng& rng, const std::string& x) {
  static const char* const kTypes[] = {"person", "train", "airplane", "horse"};
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return htl::MakeCompare(htl::AttrTerm::AttrOf("type", x), htl::CompareOp::kEq,
                              htl::AttrTerm::Literal(htl::AttrValue(
                                  kTypes[rng.UniformInt(0, 3)])),
                              Weight(rng));
    case 1:
      return htl::MakePredicate("moving", {x}, Weight(rng));
    case 2:
      return htl::MakePredicate("armed", {x}, Weight(rng));
    case 3:
      return htl::MakeCompare(htl::AttrTerm::AttrOf("height", x), htl::CompareOp::kGe,
                              htl::AttrTerm::Literal(htl::AttrValue(rng.UniformInt(1, 5))),
                              Weight(rng));
    default:
      return htl::MakePresent(x, Weight(rng));
  }
}

// A prenex existential over a temporal body — the type (2) shape, which
// GenerateFormula (existential bodies are non-temporal) does not produce.
htl::FormulaPtr Type2Candidate(Rng& rng) {
  htl::FormulaPtr a = ObjectAtom(rng, "x");
  htl::FormulaPtr b = ObjectAtom(rng, "x");
  htl::FormulaPtr body;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      body = htl::MakeUntil(std::move(a), std::move(b));
      break;
    case 1:
      body = htl::MakeAnd(std::move(a), htl::MakeEventually(std::move(b)));
      break;
    case 2:
      body = htl::MakeEventually(htl::MakeAnd(std::move(a), std::move(b)));
      break;
    default:
      body = htl::MakeAnd(std::move(a), htl::MakeNext(std::move(b)));
      break;
  }
  return htl::MakeExists({"x"}, std::move(body));
}

/// Object variables bound anywhere in `f`. A conjunction of existentials
/// becomes one picture query over all their variables, whose cost grows
/// exponentially with the count — and the picture system runs it to the end
/// before budgets or deadlines are checked, so such candidates are redrawn.
size_t BoundObjectVars(const htl::Formula& f) {
  size_t n = f.vars.size();
  if (f.left != nullptr) n += BoundObjectVars(*f.left);
  if (f.right != nullptr) n += BoundObjectVars(*f.right);
  return n;
}

htl::FormulaPtr Candidate(Rng& rng, int cls) {
  htl::FormulaGenOptions options;
  options.max_depth = 3;
  switch (cls) {
    case 0:
      options.allow_freeze = false;
      return htl::GenerateFormula(rng, options);
    case 1:
      return Type2Candidate(rng);
    case 2:
      return htl::GenerateFormula(rng, options);
    default:
      options.allow_freeze = false;
      options.max_depth = 2;
      return htl::MakeAtNextLevel(htl::GenerateFormula(rng, options));
  }
}

// `count` distinct generated texts, a quarter per class, each proven to
// evaluate completely (no failed or reference-fallback video) on `store`.
htl::Result<std::vector<QuerySpec>> FrontEndPool(uint64_t seed, int count,
                                                 const MetadataStore& store) {
  static const char* const kClass[] = {"type(1)", "type(2)", "conjunctive",
                                       "extended-conjunctive"};
  htl::QueryOptions serial;
  serial.parallelism = 1;
  htl::Retriever checker(&store, serial);
  Rng rng(SubSeed(seed, 2));
  std::set<std::string> seen;
  std::vector<QuerySpec> pool;
  const int per_class = count / 4;
  for (int cls = 0; cls < 4; ++cls) {
    int accepted = 0;
    for (int attempt = 0; accepted < per_class; ++attempt) {
      if (attempt > 200'000) {
        return htl::Status::Internal(
            htl::StrCat("could not generate ", per_class, " ", kClass[cls], " formulas"));
      }
      const htl::FormulaPtr candidate = Candidate(rng, cls);
      if (BoundObjectVars(*candidate) > kMaxPoolObjectVars) continue;
      const std::string text = candidate->ToString();
      if (!seen.insert(text).second) continue;
      htl::Result<htl::FormulaPtr> f = checker.Prepare(text);
      if (!f.ok() || htl::FormulaClassName(htl::Classify(**f)) != kClass[cls]) continue;
      const int level = cls == 3 ? 2 : 3;
      // Random formulas occasionally explode (nested freeze/exists tables);
      // front_end wants microsecond evaluation, so a formula that blows the
      // per-video row budget is redrawn. Budgets, not clocks, keep the pool
      // a function of the seed alone.
      htl::ExecContext ctx(htl::ExecBudgets{.max_rows = kMaxPoolRowsPerVideo});
      htl::Result<htl::SegmentRetrieval> r =
          checker.TopSegmentsWithReport(**f, level, 10, &ctx);
      if (!r.ok() || !r->report.complete() || r->report.videos_degraded > 0) continue;
      pool.push_back(QuerySpec{text, QueryKind::kHtlSegments, level, kClass[cls]});
      ++accepted;
    }
  }
  return pool;
}

/// A kSql input relation over kSqlN segments: kSqlEntries runs at fixed
/// places (`offset` staggers the relations so their runs overlap in part),
/// with seeded values. The seed moves no interval, so the SQL requests'
/// joins, and with them their cost (front_end's tail), are the same for
/// every seed. Values are multiples of 1/16, so the direct and SQL systems
/// compute bit-identical sums.
htl::SimilarityList SqlInput(Rng& rng, int64_t offset) {
  constexpr int64_t kSlot = kSqlN / kSqlEntries;
  std::vector<htl::SimEntry> entries;
  for (int64_t i = 0; i < kSqlEntries; ++i) {
    const int64_t begin = i * kSlot + 1 + offset;
    const int64_t length = 1 + (i + offset) % 4;
    entries.push_back(htl::SimEntry{htl::Interval{begin, begin + length - 1},
                                    static_cast<double>(rng.UniformInt(1, 320)) / 16.0});
  }
  return htl::SimilarityList::FromEntriesOrDie(std::move(entries), 20.0);
}

htl::Result<Workload> FrontEnd(uint64_t seed, const Scale& scale) {
  Workload w;
  w.casablanca = w.store.AddVideo(htl::casablanca::MakeVideo());
  {
    // The bench_server store shape: small 3-level videos, so per-video
    // evaluation is microseconds and the serving path dominates.
    Rng rng(SubSeed(seed, 1));
    htl::VideoGenOptions shape;
    shape.min_branching = 2;
    shape.max_branching = 3;
    for (int i = 0; i < 8; ++i) w.store.AddVideo(htl::GenerateVideo(rng, shape));
  }
  HTL_ASSIGN_OR_RETURN(w.queries, FrontEndPool(seed, scale.front_end_pool, w.store));
  const size_t pool = w.queries.size();

  w.queries.push_back(QuerySpec{htl::casablanca::Query1Full()->ToString(),
                                QueryKind::kHtlSegments, 2, "query1"});
  // One formula shape over rotating inputs: similar cost per text, so the
  // tail the SQL share forms does not jump between text-specific costs.
  static const char* const kSql[] = {"p0() until eventually p1()", "p1() until eventually p2()",
                                     "p2() until eventually p0()"};
  for (const char* text : kSql) {
    w.queries.push_back(QuerySpec{text, QueryKind::kSql, 1, "sql"});
  }
  {
    Rng rng(SubSeed(seed, 3));
    w.sql_inputs["p0"] = SqlInput(rng, 0);
    w.sql_inputs["p1"] = SqlInput(rng, 2);
    w.sql_inputs["p2"] = SqlInput(rng, 5);
    w.sql_n = kSqlN;
  }

  // 96% uniform over the generated pool, 2% Query 1, 2% SQL.
  const double htl_share = 1.0 - kSqlShare - kQuery1Share;
  double acc = 0;
  for (size_t i = 0; i < pool; ++i) {
    acc += htl_share / static_cast<double>(pool);
    w.cdf.push_back(acc);
  }
  acc += kQuery1Share;
  w.cdf.push_back(acc);
  for (size_t i = 0; i < std::size(kSql); ++i) {
    acc += kSqlShare / static_cast<double>(std::size(kSql));
    w.cdf.push_back(acc);
  }
  w.cdf.back() = 1.0;
  w.clients = 2;
  return w;
}

htl::CorpusGenOptions Corpus(uint64_t seed, int64_t videos, int levels) {
  htl::CorpusGenOptions c;
  c.num_videos = videos;
  c.video.levels = levels;
  c.selective_fraction = 0.05;
  c.seed = SubSeed(seed, 1);
  return c;
}

htl::Result<Workload> Selective(uint64_t seed, const Scale& scale) {
  Workload w;
  // The bench_scale shape: 2 levels, few objects, 5% rare-marker videos.
  w.corpus = Corpus(seed, scale.selective_videos, 2);
  w.corpus.video.min_branching = 2;
  w.corpus.video.max_branching = 4;
  w.corpus.video.num_objects = 3;
  w.corpus.video.object_density = 0.3;
  w.store = w.StoreAt(0);
  const htl::Retriever checker(&w.store);
  for (const FixedQuery& q : kSelective) {
    HTL_ASSIGN_OR_RETURN(QuerySpec spec, Fixed(checker, q, 2));
    w.queries.push_back(std::move(spec));
  }
  w.cdf = UniformCdf(w.queries.size());
  // Four serial queries at a time contend on the Retriever's stats and
  // engine maps: every bound check and evaluation takes stats_mu_ or
  // engines_mu_.
  w.clients = 4;
  w.parallelism = 1;
  return w;
}

htl::Result<Workload> Broad(uint64_t seed, const Scale& scale) {
  Workload w;
  w.corpus = Corpus(seed, scale.broad_videos, 3);
  w.store = w.StoreAt(0);
  const htl::Retriever checker(&w.store);
  for (const FixedQuery& q : kBroad) {
    HTL_ASSIGN_OR_RETURN(QuerySpec spec, Fixed(checker, q, q.level));
    w.queries.push_back(std::move(spec));
  }
  w.cdf = UniformCdf(w.queries.size());
  w.clients = 1;
  return w;
}

htl::Result<Workload> Churn(uint64_t seed, const Scale& scale) {
  Workload w;
  w.corpus = Corpus(seed, scale.churn_videos, 3);
  w.batch = w.corpus;
  w.batch.num_videos = scale.churn_batch;
  // A tenth of the appended videos carry a marker no original video has:
  // ties rank lower video ids first, so appended videos seldom enter the
  // top k of the other queries.
  w.batch.rare_type = "airship";
  w.batch.selective_fraction = 0.1;
  w.store = w.StoreAt(0);
  const htl::Retriever checker(&w.store);
  // Popularity rank interleaves dense, selective and weighted texts so no
  // class owns the head of the Zipf curve.
  const size_t n = std::size(kBroad);
  for (size_t i = 0; i < n; ++i) {
    HTL_ASSIGN_OR_RETURN(QuerySpec dense, Fixed(checker, kBroad[i], kBroad[i].level));
    w.queries.push_back(std::move(dense));
    if (i % 2 == 0) {
      // Rare markers sit on the leaves, level 3 in this corpus.
      HTL_ASSIGN_OR_RETURN(QuerySpec rare, Fixed(checker, kSelective[i / 2], 3));
      w.queries.push_back(std::move(rare));
    } else {
      const FixedQuery& v = kVariants[i / 2];
      HTL_ASSIGN_OR_RETURN(QuerySpec variant, Fixed(checker, v, v.level));
      w.queries.push_back(std::move(variant));
    }
  }
  w.cdf = ZipfCdf(w.queries.size(), 1.1);
  w.clients = 2;
  w.use_cache = true;
  w.mutate_every = scale.churn_period;
  return w;
}

}  // namespace

htl::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                   const Scale& scale) {
  htl::Result<Workload> w = htl::Status::InvalidArgument(
      htl::StrCat("unknown workload '", name, "'"));
  if (name == "front_end") {
    w = FrontEnd(seed, scale);
    if (w.ok()) w->replay_prefix = scale.replay_front_end;
  } else if (name == "corpus_selective") {
    w = Selective(seed, scale);
    if (w.ok()) w->replay_prefix = scale.replay_selective;
  } else if (name == "corpus_broad") {
    w = Broad(seed, scale);
    if (w.ok()) w->replay_prefix = scale.replay_broad;
  } else if (name == "cached_churn") {
    w = Churn(seed, scale);
    if (w.ok()) w->replay_prefix = scale.replay_churn;
  }
  if (w.ok()) {
    w->name = std::string(name);
    w->seed = seed;
  }
  return w;
}

}  // namespace e2e
