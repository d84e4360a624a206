// LruCache: hit/miss/eviction accounting (atomics and trace
// registry), LRU eviction order under a tiny capacity, build-once under
// concurrent get_or_build of one key, builder-exception retry, and the
// capacity-0 bypass mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "trace/trace.hpp"

namespace eroof::serve {
namespace {

std::shared_ptr<const int> boxed(int v) {
  return std::make_shared<const int>(v);
}

TEST(ShardedLruCache, HitMissAccounting) {
  trace::TraceSession session;
  trace::SessionGuard guard(session);
  LruCache<int> cache({.capacity = 4});

  auto first = cache.get_or_build("a", [] { return boxed(1); });
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(*first.value, 1);
  auto second = cache.get_or_build("a", [] { return boxed(99); });
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(*second.value, 1);  // cached value, builder not re-run
  EXPECT_EQ(second.value.get(), first.value.get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  const auto totals = session.counter_totals();
  EXPECT_EQ(totals.at("serve.cache.hit"), 1.0);
  EXPECT_EQ(totals.at("serve.cache.miss"), 1.0);
  EXPECT_EQ(totals.count("serve.cache.eviction"), 0u);
}

TEST(ShardedLruCache, LruEvictionUnderTinyCapacity) {
  LruCache<int> cache({.capacity = 2});
  (void)cache.get_or_build("a", [] { return boxed(1); });
  (void)cache.get_or_build("b", [] { return boxed(2); });
  (void)cache.get_or_build("a", [] { return boxed(0); });  // a now MRU
  (void)cache.get_or_build("c", [] { return boxed(3); });  // evicts b (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.get_or_build("a", [] { return boxed(0); }).hit);
  bool rebuilt = false;
  (void)cache.get_or_build("b", [&] {
    rebuilt = true;
    return boxed(2);
  });
  EXPECT_TRUE(rebuilt);  // b was the eviction victim
}

TEST(ShardedLruCache, EvictedValueSurvivesForHolders) {
  LruCache<int> cache({.capacity = 1});
  auto a = cache.get_or_build("a", [] { return boxed(1); }).value;
  (void)cache.get_or_build("b", [] { return boxed(2); });  // evicts a
  EXPECT_EQ(*a, 1);  // still alive: eviction only drops the cache's ref
}

TEST(ShardedLruCache, ConcurrentGetOrBuildBuildsExactlyOnce) {
  LruCache<int> cache({.capacity = 4});
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> results(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] =
          cache
              .get_or_build("key",
                            [&] {
                              builds.fetch_add(1);
                              // Widen the build window so waiters really wait.
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(20));
                              return boxed(42);
                            })
              .value;
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(*r, 42);
    EXPECT_EQ(r.get(), results[0].get());  // everyone shares one object
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ShardedLruCache, BuilderExceptionPropagatesAndEntryRetries) {
  LruCache<int> cache({.capacity = 4});
  EXPECT_THROW(
      (void)cache.get_or_build(
          "a", []() -> std::shared_ptr<const int> {
            throw std::runtime_error("build failed");
          }),
      std::runtime_error);
  // The failed entry was dropped: the next request rebuilds.
  auto ok = cache.get_or_build("a", [] { return boxed(5); });
  EXPECT_FALSE(ok.hit);
  EXPECT_EQ(*ok.value, 5);
}

TEST(ShardedLruCache, FailedBuildDoesNotDropAReplacementEntry) {
  // Race shape: while a build for "K" is in flight, its entry is
  // LRU-evicted and another thread inserts + completes a fresh entry for
  // the same key. When the original build then fails, cleanup must leave
  // the fresh, healthy entry alone (generation check in drop()); erasing
  // it would force a redundant rebuild.
  LruCache<int> cache({.capacity = 1});
  EXPECT_THROW(
      (void)cache.get_or_build(
          "K",
          [&]() -> std::shared_ptr<const int> {
            // A second thread (builders must not re-enter the cache on the
            // same thread) evicts the in-flight "K", then rebuilds it.
            std::thread other([&] {
              (void)cache.get_or_build("evictor", [] { return boxed(1); });
              auto fresh = cache.get_or_build("K", [] { return boxed(2); });
              EXPECT_FALSE(fresh.hit);
              EXPECT_EQ(*fresh.value, 2);
            });
            other.join();
            throw std::runtime_error("original build failed");
          }),
      std::runtime_error);
  // The replacement entry survived the failing call's cleanup.
  auto after = cache.get_or_build("K", [] { return boxed(3); });
  EXPECT_TRUE(after.hit);
  EXPECT_EQ(*after.value, 2);
}

TEST(ShardedLruCache, CapacityZeroBypassesCaching) {
  LruCache<int> cache({.capacity = 0});
  int builds = 0;
  for (int i = 0; i < 3; ++i) {
    auto r = cache.get_or_build("a", [&] {
      ++builds;
      return boxed(i);
    });
    EXPECT_FALSE(r.hit);
  }
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace eroof::serve
