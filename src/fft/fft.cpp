#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "util/require.hpp"

namespace eroof::fft {
namespace {

constexpr std::size_t kMaxButterflyPrime = 61;

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<std::size_t> factorize(std::size_t n) {
  std::vector<std::size_t> fs;
  for (std::size_t p : {std::size_t{2}, std::size_t{3}, std::size_t{5},
                        std::size_t{7}}) {
    while (n % p == 0) {
      fs.push_back(p);
      n /= p;
    }
  }
  for (std::size_t p = 11; p * p <= n; p += 2) {
    while (n % p == 0) {
      fs.push_back(p);
      n /= p;
    }
  }
  if (n > 1) fs.push_back(n);
  return fs;
}

// Per-thread transform scratch, grown on demand and reused across calls so
// steady-state transforms never touch the heap (the FMM's V phase runs two
// FFTs per node per evaluation). Distinct roles so the one nested case --
// Bluestein driving its power-of-two convolution plan -- cannot alias:
// the Bluestein path itself uses only tl_blu_work, and its inner plan is
// always a butterfly plan using tl_ct_in / tl_ct_scratch.
thread_local std::vector<cplx> tl_ct_in;       // input copy for ct_recurse
thread_local std::vector<cplx> tl_ct_scratch;  // p butterfly temporaries
thread_local std::vector<cplx> tl_blu_work;    // Bluestein convolution buffer

std::vector<cplx>& grown(std::vector<cplx>& buf, std::size_t n) {
  // First-touch growth to the high-water mark; steady-state transforms
  // of a given size never reallocate.
  if (buf.size() < n) buf.resize(n);  // eroof-lint: allow(hot-alloc)
  return buf;
}

}  // namespace

struct Plan::Impl {
  std::size_t n = 0;
  std::vector<std::size_t> factors;   // prime factorization, ascending-ish
  std::vector<cplx> twiddle;          // twiddle[j] = exp(-2 pi i j / n)
  bool use_bluestein = false;
  std::vector<std::uint32_t> bitrev;  // set iff n is a power of two

  // Bluestein machinery (set up only when needed).
  std::unique_ptr<Plan> conv_plan;    // power-of-two plan of length m
  std::vector<cplx> chirp;            // chirp[j] = exp(-pi i j^2 / n)
  std::vector<cplx> bfilter_fft;      // FFT of the chirp filter, length m

  explicit Impl(std::size_t size) : n(size) {
    EROOF_REQUIRE_MSG(n >= 1, "FFT length must be >= 1");
    factors = factorize(n);
    for (std::size_t f : factors)
      if (f > kMaxButterflyPrime) use_bluestein = true;

    twiddle.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(j) / static_cast<double>(n);
      twiddle[j] = {std::cos(ang), std::sin(ang)};
    }

    if (n >= 2 && (n & (n - 1)) == 0) {
      // Power of two: precompute the bit-reversal permutation driving the
      // iterative in-place radix-2 path below (the hot case -- the KIFMM's
      // FFT grids have edge 2p).
      bitrev.resize(n);
      std::uint32_t bits = 0;
      while ((std::size_t{1} << bits) < n) ++bits;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t r = 0;
        for (std::uint32_t b = 0; b < bits; ++b)
          r |= ((i >> b) & 1u) << (bits - 1 - b);
        bitrev[i] = r;
      }
    }

    if (use_bluestein) {
      const std::size_t m = next_pow2(2 * n - 1);
      conv_plan = std::make_unique<Plan>(m);
      chirp.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        // j^2 mod 2n keeps the argument small and the phase exact.
        const std::size_t j2 = (j * j) % (2 * n);
        const double ang = -std::numbers::pi * static_cast<double>(j2) /
                           static_cast<double>(n);
        chirp[j] = {std::cos(ang), std::sin(ang)};
      }
      std::vector<cplx> filt(m, cplx{0, 0});
      filt[0] = std::conj(chirp[0]);
      for (std::size_t j = 1; j < n; ++j) {
        filt[j] = std::conj(chirp[j]);
        filt[m - j] = std::conj(chirp[j]);
      }
      conv_plan->forward(filt);
      bfilter_fft = std::move(filt);
    }
  }

  // Recursive mixed-radix Cooley-Tukey.
  //
  // Computes the length-`len` DFT of in[0], in[stride], ... into out[0..len).
  // `fidx` indexes into `factors`; all twiddles come from the master table
  // because every sub-length divides n (twiddle step n/len).
  void ct_recurse(cplx* out, const cplx* in, std::size_t len,
                  std::size_t stride, std::size_t fidx,
                  std::vector<cplx>& scratch) const {
    if (len == 1) {
      out[0] = in[0];
      return;
    }
    const std::size_t p = factors[fidx];
    const std::size_t m = len / p;

    for (std::size_t q = 0; q < p; ++q)
      ct_recurse(out + q * m, in + q * stride, m, stride * p, fidx + 1,
                 scratch);

    // Combine p interleaved sub-DFTs. Twiddle step for length `len` in the
    // master table is n/len.
    const std::size_t tw_step = n / len;
    cplx* t = scratch.data();  // p temporaries
    for (std::size_t k1 = 0; k1 < m; ++k1) {
      for (std::size_t q = 0; q < p; ++q) {
        const std::size_t tw = (q * k1 * tw_step) % n;
        t[q] = out[q * m + k1] * twiddle[tw];
      }
      for (std::size_t q2 = 0; q2 < p; ++q2) {
        // p-point DFT row q2 with roots of unity of order p
        // (order-p roots live at multiples of n/p in the master table).
        cplx acc = t[0];
        for (std::size_t q = 1; q < p; ++q) {
          const std::size_t tw = ((q * q2) % p) * (n / p);
          acc += t[q] * twiddle[tw];
        }
        out[q2 * m + k1] = acc;
      }
    }
  }

  // Iterative in-place radix-2 (decimation in time). Same DFT as the
  // generic recursion, but no input copy, no recursion, and no modulo in
  // the butterfly: twiddles for sub-length `len` sit at stride n/len in the
  // master table.
  void radix2(std::span<cplx> data) const {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = bitrev[i];
      if (i < r) std::swap(data[i], data[r]);
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      const std::size_t step = n / len;
      for (std::size_t base = 0; base < n; base += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const cplx w = twiddle[k * step];
          const cplx u = data[base + k];
          const cplx v = data[base + k + half] * w;
          data[base + k] = u + v;
          data[base + k + half] = u - v;
        }
      }
    }
  }

  void forward(std::span<cplx> data) const {
    EROOF_REQUIRE(data.size() == n);
    if (n == 1) return;
    if (use_bluestein) {
      bluestein(data);
      return;
    }
    if (!bitrev.empty()) {
      radix2(data);
      return;
    }
    std::size_t max_p = 0;
    for (std::size_t f : factors) max_p = std::max(max_p, f);
    auto& scratch = grown(tl_ct_scratch, max_p);
    auto& in = grown(tl_ct_in, n);
    std::copy(data.begin(), data.end(), in.begin());
    ct_recurse(data.data(), in.data(), n, 1, 0, scratch);
  }

  void bluestein(std::span<cplx> data) const {
    const std::size_t m = conv_plan->size();
    auto& a = grown(tl_blu_work, m);
    std::fill(a.begin(), a.begin() + static_cast<long>(m), cplx{0, 0});
    for (std::size_t j = 0; j < n; ++j) a[j] = data[j] * chirp[j];
    const std::span<cplx> aspan(a.data(), m);  // buffer may be over-sized
    conv_plan->forward(aspan);
    for (std::size_t j = 0; j < m; ++j) a[j] *= bfilter_fft[j];
    conv_plan->inverse(aspan);
    for (std::size_t k = 0; k < n; ++k) data[k] = a[k] * chirp[k];
  }
};

Plan::Plan(std::size_t n) : impl_(std::make_unique<Impl>(n)) {}
Plan::~Plan() = default;
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;

std::size_t Plan::size() const { return impl_->n; }

void Plan::forward(std::span<cplx> data) const { impl_->forward(data); }

void Plan::inverse(std::span<cplx> data) const {
  // IDFT(x) = conj(DFT(conj(x))) / n.
  for (auto& v : data) v = std::conj(v);
  impl_->forward(data);
  const double inv = 1.0 / static_cast<double>(impl_->n);
  for (auto& v : data) v = std::conj(v) * inv;
}

}  // namespace eroof::fft
