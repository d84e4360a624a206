// From-scratch complex FFT.
//
// The KIFMM's V-list (M2L) translation is a grid convolution evaluated with
// FFTs (Section III-B of the paper: "approximates interactions with far
// neighbors through fast Fourier transforms and vector additions"), so the
// library ships its own transform rather than assuming FFTW:
//
//   * mixed-radix recursive Cooley-Tukey for sizes whose prime factors are
//     small (any factor <= 61 is handled by an O(n*p) butterfly), and
//   * Bluestein's chirp-z algorithm for sizes with large prime factors,
//     reducing them to a power-of-two convolution.
//
// Plans precompute twiddle tables and are owned by their callers;
// transforms are O(n log n) for smooth n.
#pragma once

#include <complex>
#include <memory>
#include <span>

namespace eroof::fft {

using cplx = std::complex<double>;

/// A reusable transform plan for one length.
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
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace eroof::fft
