// Sharded, string-keyed LRU cache with build-once semantics.
//
// The serving plan cache's engine, kept generic: values are immutable
// (shared_ptr<const V>) and built on demand by the first requester of a
// key. Concurrent requesters of the same key never duplicate the build --
// the first arrival inserts a promise and constructs the value *outside*
// the shard lock (builds are expensive: operators, schedule search), while
// later arrivals wait on the shared future. Keys hash to independent shards
// so requests for different plans do not serialize on one mutex.
//
// Eviction is LRU per shard (per-shard capacity = ceil(capacity/shards));
// an evicted value stays alive for whoever still holds it -- eviction only
// forgets the cache's reference, exactly what shared_ptr is for. Capacity 0
// disables caching entirely (every call builds; the benchmark's cold mode).
//
// Counters: hits/misses/evictions are kept as atomics for stats() and
// mirrored into the trace registry as "<prefix>.hit|miss|eviction" --
// integer increments, so registry totals are exact under any thread
// interleaving.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/trace.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace eroof::serve {

template <typename V>
class ShardedLruCache {
 public:
  struct Config {
    std::size_t capacity = 16;  ///< total entries; 0 = bypass (never cache)
    std::size_t shards = 4;
    std::string counter_prefix = "serve.cache";
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  struct Result {
    std::shared_ptr<const V> value;
    bool hit = false;  ///< false iff this call ran the builder
  };

  explicit ShardedLruCache(Config cfg) : cfg_(std::move(cfg)) {
    EROOF_REQUIRE(cfg_.shards >= 1);
    shard_capacity_ =
        cfg_.capacity == 0
            ? 0
            : (cfg_.capacity + cfg_.shards - 1) / cfg_.shards;  // ceil
    shards_ = std::vector<Shard>(cfg_.shards);
  }

  /// Returns the cached value for `key`, building it via `builder` on first
  /// use. `builder` must be deterministic per key and may not re-enter the
  /// cache. Exceptions from the builder propagate to every waiter and the
  /// entry is dropped (the next request retries).
  Result get_or_build(
      const std::string& key,
      const std::function<std::shared_ptr<const V>()>& builder) {
    if (cfg_.capacity == 0) {
      count(misses_, ".miss");
      return {builder(), false};
    }

    Shard& shard = shards_[util::fnv1a64(key) % shards_.size()];
    std::promise<std::shared_ptr<const V>> promise;
    std::uint64_t my_gen = 0;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(key);
      // Membership test, not iteration: no order dependence.
      if (it != shard.map.end()) {  // eroof-lint: allow(nondet-unordered-iter)
        // Hit (possibly on an in-flight build: we wait, never rebuild).
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
        auto future = it->second.future;
        lock.unlock();
        count(hits_, ".hit");
        return {future.get(), true};
      }

      shard.lru.push_front(key);
      Entry entry;
      entry.future = promise.get_future().share();
      entry.lru_it = shard.lru.begin();
      my_gen = entry.gen = ++shard.gen;
      shard.map.emplace(key, std::move(entry));

      while (shard.map.size() > shard_capacity_) {
        // Never the entry just inserted: it sits at the LRU front and
        // shard_capacity_ >= 1 keeps at least one entry.
        const std::string victim = shard.lru.back();
        shard.lru.pop_back();
        shard.map.erase(victim);
        count(evictions_, ".eviction");
      }
    }

    count(misses_, ".miss");
    std::shared_ptr<const V> value;
    try {
      value = builder();
    } catch (...) {
      promise.set_exception(std::current_exception());
      drop(shard, key, my_gen);
      throw;
    }
    promise.set_value(value);
    return {std::move(value), false};
  }

  Stats stats() const {
    // Counter snapshot: independently monotonic tallies with no
    // cross-counter consistency promise; relaxed loads suffice.
    return {hits_.load(std::memory_order_relaxed),       // eroof-lint: allow(relaxed-atomic)
            misses_.load(std::memory_order_relaxed),     // eroof-lint: allow(relaxed-atomic)
            evictions_.load(std::memory_order_relaxed)};  // eroof-lint: allow(relaxed-atomic)
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      n += s.map.size();
    }
    return n;
  }

  const Config& config() const { return cfg_; }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const V>> future;
    std::list<std::string>::iterator lru_it;
    std::uint64_t gen = 0;  ///< insertion generation; identifies the entry
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
    std::list<std::string> lru;  ///< front = most recently used
    std::uint64_t gen = 0;  ///< bumped per insertion (under mu)
  };

  void count(std::atomic<std::uint64_t>& counter, const char* suffix) {
    // Monotonic tally, read only by stats(); no ordering needed.
    counter.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
    trace::counter_add(cfg_.counter_prefix + suffix, 1.0);
  }

  /// Failed-build cleanup: removes `key` only if the map still holds the
  /// entry inserted by the failing call (generation `gen`). If that entry
  /// was already LRU-evicted and another thread re-inserted a fresh entry
  /// for the same key, the fresh one is healthy and must survive --
  /// dropping it would force a redundant rebuild.
  void drop(Shard& shard, const std::string& key, std::uint64_t gen) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    // Membership test, not iteration: no order dependence.
    if (it == shard.map.end()) return;  // eroof-lint: allow(nondet-unordered-iter)
    if (it->second.gen != gen) return;
    shard.lru.erase(it->second.lru_it);
    shard.map.erase(it);
  }

  Config cfg_;
  std::size_t shard_capacity_ = 0;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace eroof::serve
