// Result-cache semantics: key normalization, LRU eviction at capacity,
// the epoch rule (an older-epoch insert is dropped, a newer epoch empties
// the cache), and the hit/miss/invalidation metrics.

#include "server/result_cache.h"

#include <gtest/gtest.h>

#include "common/metrics.h"

namespace xomatiq::srv {
namespace {

common::Counter* Hits() {
  return common::MetricsRegistry::Global().GetCounter("server.cache.hits");
}
common::Counter* Misses() {
  return common::MetricsRegistry::Global().GetCounter("server.cache.misses");
}
common::Counter* Invalidations() {
  return common::MetricsRegistry::Global().GetCounter(
      "server.cache.invalidations");
}

TEST(ResultCacheTest, MakeKeyNormalizesWhitespace) {
  EXPECT_EQ(ResultCache::MakeKey(0, "SELECT  *\n FROM\tt", 7),
            ResultCache::MakeKey(0, "SELECT * FROM t", 7));
  EXPECT_EQ(ResultCache::MakeKey(0, "  SELECT 1  ", 7),
            ResultCache::MakeKey(0, "SELECT 1", 7));
  // Case is preserved and modes do not collide.
  EXPECT_NE(ResultCache::MakeKey(0, "select 1", 7),
            ResultCache::MakeKey(0, "SELECT 1", 7));
  EXPECT_NE(ResultCache::MakeKey(0, "SELECT 1", 7),
            ResultCache::MakeKey(1, "SELECT 1", 7));
}

TEST(ResultCacheTest, MakeKeySeparatesSnapshotEpochs) {
  // One query pinned at two committed epochs must not share a body: the
  // cached rows are byte-exact for the snapshot they were computed at.
  EXPECT_NE(ResultCache::MakeKey(0, "SELECT 1", 7),
            ResultCache::MakeKey(0, "SELECT 1", 8));
  // The epoch is part of the prefix, not the normalized text: a query
  // whose literal happens to contain the epoch digits cannot collide.
  EXPECT_NE(ResultCache::MakeKey(0, "8:SELECT 1", 7),
            ResultCache::MakeKey(0, "SELECT 1", 8));
}

TEST(ResultCacheTest, HitMissAndCounters) {
  ResultCache cache(4);
  uint64_t hits0 = Hits()->Value();
  uint64_t misses0 = Misses()->Value();
  EXPECT_FALSE(cache.Lookup("k").has_value());
  cache.Insert("k", 1, "body");
  auto body = cache.Lookup("k");
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, "body");
  EXPECT_EQ(Hits()->Value(), hits0 + 1);
  EXPECT_EQ(Misses()->Value(), misses0 + 1);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  ResultCache cache(2);
  cache.Insert("a", 1, "1");
  cache.Insert("b", 1, "2");
  ASSERT_TRUE(cache.Lookup("a").has_value());  // refresh a; b is now LRU
  cache.Insert("c", 1, "3");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
}

TEST(ResultCacheTest, OlderEpochInsertIsDroppedAndNewerEpochClears) {
  ResultCache cache(8);
  cache.Insert("a", 5, "1");
  cache.Insert("b", 5, "2");
  ASSERT_EQ(cache.size(), 2u);
  // A query that pinned epoch 4 finishes after epoch 5 is installed: no
  // new request can pin 4 again, so its result must not land.
  cache.Insert("stale", 4, "old");
  EXPECT_FALSE(cache.Lookup("stale").has_value());
  EXPECT_EQ(cache.size(), 2u);
  // The first result of epoch 6 strands every epoch-5 entry: the cache
  // empties before it goes in, and counts one invalidation.
  const uint64_t invalidations0 = Invalidations()->Value();
  cache.Insert("c", 6, "3");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_EQ(Invalidations()->Value(), invalidations0 + 1);
  // More results of the same epoch accumulate without another turnover.
  cache.Insert("d", 6, "4");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(Invalidations()->Value(), invalidations0 + 1);
}

TEST(ResultCacheTest, InsertRefreshesExistingEntry) {
  ResultCache cache(2);
  cache.Insert("a", 1, "old");
  cache.Insert("b", 1, "2");
  cache.Insert("a", 1, "new");  // refresh, no growth
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.Lookup("a"), "new");
}

}  // namespace
}  // namespace xomatiq::srv
