// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the toolkit (measurement noise, point-cloud
// generation, sampling of DVFS settings) draw from Xoshiro256** via this
// wrapper so experiments are reproducible from a single seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>

namespace eroof::util {

/// SplitMix64 finalizer (Steele/Lea/Flood): a bijective 64-bit mix with full
/// avalanche, used both for seeding Xoshiro state and for deriving
/// independent per-cell stream keys.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a 64-bit string hash. Unlike std::hash<std::string>, the value is
/// specified, so stream keys derived from workload/setting labels are
/// identical on every platform and standard library.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Xoshiro256** by Blackman & Vigna: small state, excellent statistical
/// quality, and -- unlike std::mt19937 -- identical output on every platform
/// regardless of library vendor.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    for (auto& s : state_) {
      s = splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded generation.
    using u128 = unsigned __int128;
    std::uint64_t x = (*this)();
    u128 m = static_cast<u128>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<u128>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u = 0;
    double v = 0;
    double s = 0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    have_spare_ = true;
    return u * mul;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0;
  bool have_spare_ = false;
};

/// Deterministic stream splitter: derives independent RNG streams from a root
/// seed plus a path of fork components (integers or strings). Two streams are
/// decorrelated whenever any component differs, and the derived key depends
/// only on the fork *path*, never on the order in which sibling streams are
/// created -- the property that makes parallel loops order-invariant.
///
/// Typical use, one stream per (workload, setting, repeat) cell:
///
///   RngStream root(seed);
///   Rng rng = root.fork(setting.label()).fork(w.name).fork(rep).rng();
class RngStream {
 public:
  explicit RngStream(std::uint64_t root_seed) : key_(splitmix64(root_seed)) {}

  /// Child stream for an integer component (e.g. a repeat index).
  [[nodiscard]] RngStream fork(std::uint64_t component) const {
    return RngStream(splitmix64(key_ ^ splitmix64(component)), forked_tag{});
  }

  /// Child stream for a string component (e.g. a workload or setting label).
  /// FNV-1a keeps the key platform-stable.
  [[nodiscard]] RngStream fork(std::string_view component) const {
    return fork(fnv1a64(component));
  }

  /// The derived 64-bit key; feed it to anything needing a scalar seed.
  [[nodiscard]] std::uint64_t seed() const { return key_; }

  /// Fresh generator seeded from this stream's key.
  [[nodiscard]] Rng rng() const { return Rng(key_); }

 private:
  struct forked_tag {};
  RngStream(std::uint64_t key, forked_tag) : key_(key) {}

  std::uint64_t key_;
};

}  // namespace eroof::util
