// Wide-event query log: id assignment and newest-first tails, ring
// wraparound, threshold/sampled profile retention with its memory bound,
// query-text truncation, JSON rendering, and concurrent Record/Tail safety.

#include "obs/query_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace htl::obs {
namespace {

QueryLogRecord MakeRecord(std::string query, int64_t total_us) {
  QueryLogRecord rec;
  rec.query = std::move(query);
  rec.total_us = total_us;
  rec.kind = 0;
  rec.wire_status = 0;
  return rec;
}

QueryProfile MakeProfile(const std::string& root_name) {
  QueryProfile profile;
  QueryProfile::Node root;
  root.name = root_name;
  root.nanos = 1'000'000;
  profile.roots.push_back(std::move(root));
  return profile;
}

TEST(QueryLog, AssignsMonotonicIdsAndTailsNewestFirst) {
  QueryLog log;
  EXPECT_EQ(log.total_recorded(), 0u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.Tail(10).empty());

  EXPECT_EQ(log.Record(MakeRecord("q1", 10)), 1u);
  EXPECT_EQ(log.Record(MakeRecord("q2", 20)), 2u);
  EXPECT_EQ(log.Record(MakeRecord("q3", 30)), 3u);
  EXPECT_EQ(log.total_recorded(), 3u);
  EXPECT_EQ(log.size(), 3u);

  const std::vector<QueryLog::Entry> tail = log.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].record.id, 3u);
  EXPECT_EQ(tail[0].record.query, "q3");
  EXPECT_EQ(tail[1].record.id, 2u);
}

TEST(QueryLog, RingOverwritesOldestAtCapacity) {
  QueryLog::Options options;
  options.capacity = 4;
  options.slow_threshold_us = -1;  // No retention in this test.
  QueryLog log(options);
  for (int i = 1; i <= 10; ++i) {
    log.Record(MakeRecord(StrCat("q", i), i));
  }
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.size(), 4u);
  const std::vector<QueryLog::Entry> tail = log.Tail(100);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].record.id, 10u);
  EXPECT_EQ(tail[3].record.id, 7u);  // 1..6 fell off.
}

TEST(QueryLog, ThresholdRetainsOnlySlowProfiles) {
  QueryLog::Options options;
  options.slow_threshold_us = 1000;
  QueryLog log(options);

  const uint64_t fast = log.Record(MakeRecord("fast", 999), MakeProfile("f"));
  const uint64_t slow = log.Record(MakeRecord("slow", 1000), MakeProfile("s"));
  EXPECT_EQ(log.retained_profiles(), 1u);
  EXPECT_EQ(log.ProfileFor(fast), nullptr);
  const std::shared_ptr<const QueryProfile> profile = log.ProfileFor(slow);
  ASSERT_NE(profile, nullptr);
  ASSERT_EQ(profile->roots.size(), 1u);
  EXPECT_EQ(profile->roots[0].name, "s");
  // id 0 = the newest record with a retained profile.
  EXPECT_EQ(log.ProfileFor(0), profile);
  // An empty profile is never retained, whatever the latency.
  log.Record(MakeRecord("slow-untraced", 5000));
  EXPECT_EQ(log.retained_profiles(), 1u);
}

TEST(QueryLog, ZeroThresholdRetainsEveryTracedRequest) {
  QueryLog::Options options;
  options.slow_threshold_us = 0;
  QueryLog log(options);
  log.Record(MakeRecord("a", 0), MakeProfile("a"));
  log.Record(MakeRecord("b", 1), MakeProfile("b"));
  EXPECT_EQ(log.retained_profiles(), 2u);
}

TEST(QueryLog, SamplingRetainsEveryNth) {
  QueryLog::Options options;
  options.slow_threshold_us = -1;  // Threshold off; sampling only.
  options.sample_every = 3;
  QueryLog log(options);
  for (int i = 1; i <= 9; ++i) {
    log.Record(MakeRecord("q", 1), MakeProfile(StrCat("p", i)));
  }
  EXPECT_EQ(log.retained_profiles(), 3u);  // ids 3, 6, 9.
  EXPECT_NE(log.ProfileFor(3), nullptr);
  EXPECT_EQ(log.ProfileFor(4), nullptr);
  EXPECT_NE(log.ProfileFor(9), nullptr);
}

TEST(QueryLog, RetainedProfileCapEvictsOldestProfile) {
  QueryLog::Options options;
  options.slow_threshold_us = 0;
  options.max_retained_profiles = 2;
  QueryLog log(options);
  log.Record(MakeRecord("a", 1), MakeProfile("a"));
  log.Record(MakeRecord("b", 1), MakeProfile("b"));
  log.Record(MakeRecord("c", 1), MakeProfile("c"));
  EXPECT_EQ(log.retained_profiles(), 2u);
  EXPECT_EQ(log.ProfileFor(1), nullptr);  // Oldest evicted; record remains.
  EXPECT_NE(log.ProfileFor(2), nullptr);
  EXPECT_NE(log.ProfileFor(3), nullptr);
  const std::vector<QueryLog::Entry> tail = log.Tail(3);
  EXPECT_EQ(tail[2].record.query, "a");  // The wide event itself survives.
}

TEST(QueryLog, WrapReleasesRetainedProfiles) {
  QueryLog::Options options;
  options.capacity = 2;
  options.slow_threshold_us = 0;
  options.max_retained_profiles = 16;
  QueryLog log(options);
  for (int i = 0; i < 6; ++i) {
    log.Record(MakeRecord("q", 1), MakeProfile("p"));
  }
  // Only the two ring slots can hold profiles; overwritten entries must
  // release theirs instead of leaking the count.
  EXPECT_EQ(log.retained_profiles(), 2u);
}

TEST(QueryLog, TruncatesQueryText) {
  QueryLog::Options options;
  options.max_query_bytes = 8;
  QueryLog log(options);
  log.Record(MakeRecord("0123456789abcdef", 1));
  EXPECT_EQ(log.Tail(1)[0].record.query, "01234567");
}

TEST(QueryLog, ToJsonCarriesTheWideEventAndEscapes) {
  QueryLog::Options options;
  options.slow_threshold_us = 0;  // Retain the profile: has_profile = true.
  QueryLog log(options);
  QueryLogRecord rec = MakeRecord("say \"hi\"\n", 1234);
  rec.fingerprint = 77;
  rec.kind = 2;
  rec.wire_status = 6;
  rec.degraded = true;
  rec.partial = true;
  rec.use_cache = true;
  rec.cache_hit = true;
  rec.formula_class = "type(2)";
  rec.level = 3;
  rec.k = 10;
  rec.deadline_ms = 500;
  rec.decode_us = 5;
  rec.execute_us = 1200;
  rec.encode_us = 7;
  rec.rows = 42;
  rec.tables = 4;
  rec.videos_evaluated = 6;
  rec.videos_failed = 1;
  log.Record(std::move(rec), MakeProfile("root"));

  const std::string json = log.ToJson(10);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"query\": \"say \\\"hi\\\"\\n\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"fingerprint\": 77"), std::string::npos);
  EXPECT_NE(json.find("\"wire_status\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"formula_class\": \"type(2)\""), std::string::npos);
  EXPECT_NE(json.find("\"execute_us\": 1200"), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"has_profile\": true"), std::string::npos);
}

TEST(QueryLog, ProfileForRejectsFallenOffIds) {
  QueryLog::Options options;
  options.capacity = 2;
  options.slow_threshold_us = 0;
  QueryLog log(options);
  log.Record(MakeRecord("a", 1), MakeProfile("a"));
  log.Record(MakeRecord("b", 1), MakeProfile("b"));
  log.Record(MakeRecord("c", 1), MakeProfile("c"));
  EXPECT_EQ(log.ProfileFor(1), nullptr);    // Overwritten.
  EXPECT_EQ(log.ProfileFor(99), nullptr);   // Never existed.
  EXPECT_NE(log.ProfileFor(3), nullptr);
}

TEST(QueryLog, ConcurrentRecordAndTailAreSafe) {
  QueryLog::Options options;
  options.capacity = 64;
  options.slow_threshold_us = 0;
  options.max_retained_profiles = 8;
  QueryLog log(options);

  ThreadPool pool(ThreadPool::Options{.num_threads = 4});
  const Status status = ParallelFor(&pool, 8, [&](int64_t worker) -> Status {
    for (int i = 0; i < 500; ++i) {
      if (worker % 2 == 0) {
        log.Record(MakeRecord(StrCat("w", worker), i),
                   MakeProfile("p"));
      } else {
        const std::vector<QueryLog::Entry> tail = log.Tail(16);
        for (size_t j = 1; j < tail.size(); ++j) {
          // Newest-first and strictly descending even mid-write.
          if (tail[j - 1].record.id <= tail[j].record.id) {
            return Status::Internal("tail out of order");
          }
        }
        log.ToJson(4);
        log.ProfileFor(0);
      }
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(log.total_recorded(), 4u * 500u);
}

}  // namespace
}  // namespace htl::obs
