// Seeded fixture: an unlock() inside a branch releases the lock on that
// branch only; the path that skips the branch still holds it. A reduced
// build-once cache: the hit branch unlocks before it tallies and waits,
// and the eviction tally after it runs under the guard.
#include <cstddef>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <string>

namespace trace {
void counter_add(const std::string& name, double value);
}

std::mutex mu;
std::map<std::string, int> entries;
std::list<std::string> lru;
std::shared_future<int> pending;

int get_or_build(const std::string& key, std::size_t capacity) {
  std::unique_lock<std::mutex> lock(mu);
  const auto it = entries.find(key);
  if (it != entries.end()) {
    const int value = it->second;
    lock.unlock();
    trace::counter_add("cache.hit", 1.0);
    return value;
  }
  lru.push_front(key);
  entries.emplace(key, 0);
  while (entries.size() > capacity) {
    entries.erase(lru.back());
    lru.pop_back();
    trace::counter_add("cache.eviction", 1.0);
  }
  return 0;
}

int wait_for_build(bool ready) {
  std::unique_lock<std::mutex> lock(mu);
  if (ready) {
    lock.unlock();
    return pending.get();
  }
  return pending.get();
}
