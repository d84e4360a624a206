// Seeded determinism violations. Lint-input fixture only -- never compiled.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

int fixture_rand() { return std::rand(); }

void fixture_seed() { srand(42u); }

long fixture_time() { return time(nullptr); }

unsigned fixture_entropy() {
  std::random_device rd;
  return rd();
}

double fixture_clock() {
  const auto t0 = std::chrono::high_resolution_clock::now();
  return std::chrono::duration<double>(t0.time_since_epoch()).count();
}

int fixture_unordered_iter() {
  std::unordered_map<int, int> counts;
  counts[1] = 2;
  int sum = 0;
  for (const auto& kv : counts) sum += kv.second;
  return sum;
}

double fixture_omp_sum(const double* x, int n) {
  double s = 0;
#pragma omp parallel for reduction(+ : s)
  for (int i = 0; i < n; ++i) s += x[i];
#pragma omp critical
  { s += 1.0; }
  return s;
}

unsigned long fixture_hash_seed() { return std::hash<int>{}(7); }
