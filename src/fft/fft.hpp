// From-scratch complex FFT, 1-D and 3-D.
//
// The KIFMM's V-list (M2L) translation is a grid convolution evaluated with
// FFTs (Section III-B of the paper: "approximates interactions with far
// neighbors through fast Fourier transforms and vector additions"), so the
// library ships its own transform rather than assuming FFTW:
//
//   * one in-place iterative radix-2 pass for power-of-two lengths -- the
//     1-D transform and each axis of a power-of-two 3-D grid, and
//   * mixed-radix recursive Cooley-Tukey for other lengths (any prime
//     factor <= 61 is handled by an O(n*p) butterfly). The FMM's grids have
//     edge m = 2p <= 32, whose prime factors are at most 13.
//
// Plans precompute twiddle tables and are owned by their callers;
// transforms are O(n log n) for smooth n.
#pragma once

#include <array>
#include <complex>
#include <memory>
#include <span>

namespace eroof::fft {

using cplx = std::complex<double>;

/// A reusable transform plan for one length. Every prime factor of the
/// length must be <= 61.
///
/// Thread-compatible: concurrent calls on distinct plans are safe; a single
/// plan's execute methods are const and safe to call from many threads at
/// once (scratch lives in per-thread buffers that grow on first use, so
/// steady-state transforms perform no heap allocation).
class Plan {
 public:
  explicit Plan(std::size_t n);
  ~Plan();
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  std::size_t size() const;

  /// In-place forward DFT: X[k] = sum_j x[j] exp(-2 pi i j k / n).
  void forward(std::span<cplx> data) const;

  /// In-place inverse DFT, normalized by 1/n (forward then inverse is
  /// the identity).
  void inverse(std::span<cplx> data) const;

 private:
  friend class Plan3;  // runs its axis plans' radix-2 pass over the grid
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Reusable plan for a fixed 3-D shape over row-major [n0][n1][n2] grids,
/// built on the 1-D plans; the workhorse behind the KIFMM's FFT-accelerated
/// M2L translations. Same thread-safety as Plan.
class Plan3 {
 public:
  Plan3(std::size_t n0, std::size_t n1, std::size_t n2);

  std::array<std::size_t, 3> shape() const { return {n0_, n1_, n2_}; }
  std::size_t size() const { return n0_ * n1_ * n2_; }

  /// In-place forward transform of a row-major grid.
  void forward(std::span<cplx> data) const;

  /// In-place inverse transform (normalized: inverse(forward(x)) == x).
  void inverse(std::span<cplx> data) const;

 private:
  template <typename Fn>
  void apply_axes(std::span<cplx> data, Fn&& transform1d) const;

  void pow2_forward(std::span<cplx> data) const;

  std::size_t n0_, n1_, n2_;
  Plan p0_, p1_, p2_;
  // Every axis a power of two: the radix-2 pass runs in place along each
  // axis, vectorized over the contiguous trailing dimensions instead of
  // gathering strided pencils.
  bool pow2_;
};

}  // namespace eroof::fft
