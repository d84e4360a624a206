// Helpers shared by test binaries: running code at a set OpenMP thread
// count, and hashing exact output bits for golden regression tests.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "linalg/matrix.hpp"

namespace eroof {

/// Runs `fn` with the OpenMP thread count set to `num_threads`, then
/// restores the previous count.
template <typename Fn>
void with_threads(int num_threads, Fn&& fn) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(num_threads);
  fn();
  omp_set_num_threads(saved);
#else
  (void)num_threads;
  fn();
#endif
}

/// FNV-1a 64 over exact bits: names byte by byte, doubles by their bit
/// pattern.
class GoldenHash {
 public:
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) byte((bits >> b) & 0xffu);
  }
  void add(const std::vector<double>& v) {
    for (const double x : v) add(x);
  }
  void add(const la::Matrix& m) {
    for (const double x : m.data()) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace eroof
