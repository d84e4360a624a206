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

/// Prime factorization in ascending order.
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
// FFTs per node per evaluation).
thread_local std::vector<cplx> tl_ct_in;       // input copy for ct_recurse
thread_local std::vector<cplx> tl_ct_scratch;  // p butterfly temporaries

std::vector<cplx>& grown(std::vector<cplx>& buf, std::size_t n) {
  // First-touch growth to the high-water mark; steady-state transforms
  // of a given size never reallocate.
  if (buf.size() < n) buf.resize(n);  // eroof-lint: allow(hot-alloc)
  return buf;
}

}  // namespace

struct Plan::Impl {
  std::size_t n = 0;
  std::vector<std::size_t> factors;   // prime factorization, ascending
  std::vector<cplx> twiddle;          // twiddle[j] = exp(-2 pi i j / n)
  std::vector<std::uint32_t> bitrev;  // set iff n is a power of two

  explicit Impl(std::size_t size) : n(size) {
    EROOF_REQUIRE_MSG(n >= 1, "FFT length must be >= 1");
    factors = factorize(n);
    EROOF_REQUIRE_MSG(factors.empty() || factors.back() <= kMaxButterflyPrime,
                      "FFT length must have no prime factor above 61");

    twiddle.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(j) / static_cast<double>(n);
      twiddle[j] = {std::cos(ang), std::sin(ang)};
    }

    if (n >= 2 && (n & (n - 1)) == 0) {
      // Power of two: the bit-reversal permutation driving radix2() (the
      // hot case -- the KIFMM's FFT grids have edge 2p).
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

  // In-place iterative radix-2 (decimation in time) along one axis of
  // length n, for power-of-two n. Axis index i of a slab sits at i * stride;
  // the `block` contiguous elements there are transformed together (a 3-D
  // grid's trailing dimensions -- this is what vectorizes), and `repeat`
  // slabs follow each other n * stride apart. A 1-D transform is stride 1,
  // block 1, repeat 1. No input copy, no recursion, and no modulo in the
  // butterfly: twiddles for sub-length `sub` sit at stride n/sub.
  void radix2(cplx* data, std::size_t stride, std::size_t block,
              std::size_t repeat) const {
    // Locals, not members: the compiler cannot rule out that the butterfly
    // stores alias n or the tables' pointers, and reloading them costs a
    // third of a power-of-two 3-D transform.
    const std::size_t len = n;
    const cplx* tw = twiddle.data();
    const std::uint32_t* rev = bitrev.data();
    for (std::size_t r = 0; r < repeat; ++r) {
      cplx* base = data + r * len * stride;
      for (std::size_t i = 0; i < len; ++i) {
        const std::size_t j = rev[i];
        if (i < j) {
          cplx* a = base + i * stride;
          cplx* b = base + j * stride;
          for (std::size_t t = 0; t < block; ++t) std::swap(a[t], b[t]);
        }
      }
      for (std::size_t sub = 2; sub <= len; sub <<= 1) {
        const std::size_t half = sub / 2;
        const std::size_t step = len / sub;
        for (std::size_t seg = 0; seg < len; seg += sub) {
          for (std::size_t k = 0; k < half; ++k) {
            const cplx w = tw[k * step];
            cplx* u = base + (seg + k) * stride;
            cplx* v = base + (seg + k + half) * stride;
            for (std::size_t t = 0; t < block; ++t) {
              const cplx uu = u[t];
              const cplx vv = v[t] * w;
              u[t] = uu + vv;
              v[t] = uu - vv;
            }
          }
        }
      }
    }
  }

  void forward(std::span<cplx> data) const {
    EROOF_REQUIRE(data.size() == n);
    if (n == 1) return;
    if (!bitrev.empty()) {
      radix2(data.data(), 1, 1, 1);
      return;
    }
    auto& scratch = grown(tl_ct_scratch, factors.back());
    auto& in = grown(tl_ct_in, n);
    std::copy(data.begin(), data.end(), in.begin());
    ct_recurse(data.data(), in.data(), n, 1, 0, scratch);
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

Plan3::Plan3(std::size_t n0, std::size_t n1, std::size_t n2)
    : n0_(n0), n1_(n1), n2_(n2), p0_(n0), p1_(n1), p2_(n2),
      pow2_(!p0_.impl_->bitrev.empty() && !p1_.impl_->bitrev.empty() &&
            !p2_.impl_->bitrev.empty()) {}

template <typename Fn>
void Plan3::apply_axes(std::span<cplx> data, Fn&& transform1d) const {
  EROOF_REQUIRE(data.size() == size());

  // Axis 2: rows are contiguous.
  for (std::size_t i0 = 0; i0 < n0_; ++i0)
    for (std::size_t i1 = 0; i1 < n1_; ++i1)
      transform1d(p2_, data.subspan((i0 * n1_ + i1) * n2_, n2_));

  // Axis 1: gather strided pencils into a temp, transform, scatter back.
  // The temp is per-thread and reused across calls (the FMM V phase runs
  // two 3-D transforms per node per evaluation; none of them may allocate).
  thread_local std::vector<cplx> tl_pencil;
  // First-touch growth per thread; reused across every later transform.
  if (tl_pencil.size() < std::max(n0_, n1_))
    tl_pencil.resize(std::max(n0_, n1_));  // eroof-lint: allow(hot-alloc)
  std::vector<cplx>& pencil = tl_pencil;
  for (std::size_t i0 = 0; i0 < n0_; ++i0) {
    for (std::size_t i2 = 0; i2 < n2_; ++i2) {
      for (std::size_t i1 = 0; i1 < n1_; ++i1)
        pencil[i1] = data[(i0 * n1_ + i1) * n2_ + i2];
      transform1d(p1_, std::span<cplx>(pencil.data(), n1_));
      for (std::size_t i1 = 0; i1 < n1_; ++i1)
        data[(i0 * n1_ + i1) * n2_ + i2] = pencil[i1];
    }
  }

  // Axis 0.
  for (std::size_t i1 = 0; i1 < n1_; ++i1) {
    for (std::size_t i2 = 0; i2 < n2_; ++i2) {
      for (std::size_t i0 = 0; i0 < n0_; ++i0)
        pencil[i0] = data[(i0 * n1_ + i1) * n2_ + i2];
      transform1d(p0_, std::span<cplx>(pencil.data(), n0_));
      for (std::size_t i0 = 0; i0 < n0_; ++i0)
        data[(i0 * n1_ + i1) * n2_ + i2] = pencil[i0];
    }
  }
}

void Plan3::pow2_forward(std::span<cplx> data) const {
  cplx* d = data.data();
  // Axis 2: contiguous rows, one slab per (i0, i1).
  p2_.impl_->radix2(d, 1, 1, n0_ * n1_);
  // Axis 1: stride n2, butterflies vectorize over the contiguous row.
  p1_.impl_->radix2(d, n2_, n2_, n0_);
  // Axis 0: stride n1*n2, vectorized over whole (i1, i2) planes.
  p0_.impl_->radix2(d, n1_ * n2_, n1_ * n2_, 1);
}

void Plan3::forward(std::span<cplx> data) const {
  if (pow2_) {
    EROOF_REQUIRE(data.size() == size());
    pow2_forward(data);
    return;
  }
  apply_axes(data, [](const Plan& p, std::span<cplx> v) { p.forward(v); });
}

void Plan3::inverse(std::span<cplx> data) const {
  if (pow2_) {
    EROOF_REQUIRE(data.size() == size());
    // IDFT(x) = conj(DFT(conj(x))) / N.
    for (auto& v : data) v = std::conj(v);
    pow2_forward(data);
    const double inv = 1.0 / static_cast<double>(size());
    for (auto& v : data) v = std::conj(v) * inv;
    return;
  }
  apply_axes(data, [](const Plan& p, std::span<cplx> v) { p.inverse(v); });
}

}  // namespace eroof::fft
