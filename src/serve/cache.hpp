// String-keyed LRU cache with build-once semantics.
//
// The serving caches' engine, kept generic: values are immutable
// (shared_ptr<const V>) and built on demand by the first requester of a
// key. Concurrent requesters of the same key never duplicate the build --
// the first arrival inserts a promise and constructs the value *outside*
// the lock (builds are expensive: operators, schedule search), while later
// arrivals wait on the shared future. One mutex guards one map and one LRU
// list; each critical section is a map lookup plus a list splice, so the
// lock is never held across a build, a wait or a trace-registry call.
//
// Eviction is LRU; an evicted value stays alive for whoever still holds it
// -- eviction only forgets the cache's reference, exactly what shared_ptr
// is for. Capacity 0 disables caching entirely (every call builds; the
// benchmark's cold mode).
//
// Counters: hits/misses/evictions are kept as atomics for stats() and
// mirrored into the trace registry as "<prefix>.hit|miss|eviction" --
// integer increments, so registry totals are exact under any thread
// interleaving. The registry calls take the process-wide trace mutex, so
// they run after the critical section and are written out at each site,
// where the lint's conc-blocking-under-lock rule can see them.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "trace/trace.hpp"

namespace eroof::serve {

template <typename V>
class LruCache {
 public:
  struct Config {
    std::size_t capacity = 16;  ///< entries; 0 = bypass (never cache)
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

  explicit LruCache(Config cfg) : cfg_(std::move(cfg)) {}

  /// Returns the cached value for `key`, building it via `builder` on first
  /// use. `builder` may not re-enter the cache. Exceptions from the builder
  /// propagate to every waiter and the entry is dropped (the next request
  /// retries).
  Result get_or_build(
      const std::string& key,
      const std::function<std::shared_ptr<const V>()>& builder) {
    if (cfg_.capacity == 0) {
      tally(misses_);
      trace::counter_add(cfg_.counter_prefix + ".miss", 1.0);
      return {builder(), false};
    }

    std::shared_future<std::shared_ptr<const V>> hit;
    std::promise<std::shared_ptr<const V>> promise;
    std::uint64_t my_gen = 0;
    bool evicted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      // Membership test, not iteration: no order dependence.
      if (it != map_.end()) {  // eroof-lint: allow(nondet-unordered-iter)
        // Hit (possibly on an in-flight build: we wait, never rebuild).
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        hit = it->second.future;
      } else {
        lru_.push_front(key);
        Entry entry;
        entry.future = promise.get_future().share();
        entry.lru_it = lru_.begin();
        my_gen = entry.gen = ++gen_;
        map_.emplace(key, std::move(entry));
        // Every call inserts at most one entry, so at most one victim; never
        // the entry just inserted: it sits at the LRU front and capacity >= 1.
        if (map_.size() > cfg_.capacity) {
          map_.erase(lru_.back());
          lru_.pop_back();
          evicted = true;
        }
      }
    }

    if (hit.valid()) {
      tally(hits_);
      trace::counter_add(cfg_.counter_prefix + ".hit", 1.0);
      return {hit.get(), true};
    }
    if (evicted) {
      tally(evictions_);
      trace::counter_add(cfg_.counter_prefix + ".eviction", 1.0);
    }
    tally(misses_);
    trace::counter_add(cfg_.counter_prefix + ".miss", 1.0);
    std::shared_ptr<const V> value;
    try {
      value = builder();
    } catch (...) {
      promise.set_exception(std::current_exception());
      drop(key, my_gen);
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
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const V>> future;
    std::list<std::string>::iterator lru_it;
    std::uint64_t gen = 0;  ///< insertion generation; identifies the entry
  };

  static void tally(std::atomic<std::uint64_t>& counter) {
    // Monotonic tally, read only by stats(); no ordering needed.
    counter.fetch_add(1, std::memory_order_relaxed);  // eroof-lint: allow(relaxed-atomic)
  }

  /// Failed-build cleanup: removes `key` only if the map still holds the
  /// entry inserted by the failing call (generation `gen`). If that entry
  /// was already LRU-evicted and another thread re-inserted a fresh entry
  /// for the same key, the fresh one is healthy and must survive --
  /// dropping it would force a redundant rebuild.
  void drop(const std::string& key, std::uint64_t gen) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    // Membership test, not iteration: no order dependence.
    if (it == map_.end()) return;  // eroof-lint: allow(nondet-unordered-iter)
    if (it->second.gen != gen) return;
    lru_.erase(it->second.lru_it);
    map_.erase(it);
  }

  Config cfg_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::uint64_t gen_ = 0;       ///< bumped per insertion (under mu_)
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace eroof::serve
