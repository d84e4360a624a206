// Precomputed per-level translation operators of the KIFMM.
//
// Per level (boxes of one level are congruent, so one set serves them all):
//   UC2E   solve upward equivalent density from upward check potentials
//          (Tikhonov-regularized pseudo-inverse; the system is severely
//          ill-conditioned by design -- that is where KIFMM's accuracy
//          control lives).
//   M2M_o  child-octant-o upward equivalent surface -> parent upward check.
//   DC2E   downward analogue of UC2E.
//   L2L_o  parent downward equivalent surface -> child-o downward check.
//   M2L    one kernel tensor per V-list relative offset (316 of them),
//          stored as its 3-D FFT: because equivalent/check surface nodes sit
//          on regular grids with equal spacing, the M2L translation is a
//          grid convolution -- evaluated as a Hadamard product in Fourier
//          space (the paper's "FFTs and vector additions" V-list phase).
//
// The M2L spectra are stored in split real/imag planes (M2lBank) so the
// V-phase Hadamard accumulation vectorizes. Kernel tensors, equivalent
// densities and check potentials are real, so every spectrum is Hermitian
// (X[-k] = conj X[k]): the host stores only its k <= m/2 half along the
// last axis, spectrum_size() = m*m*(m/2+1) of the grid_size() = m^3 values
// (320 of 512 at p = 4), and the V phase multiplies only that half. For
// homogeneous kernels (K(ax, ay) = a^deg K(x, y)) one bank built at the
// reference level is shared by every level through a per-level scalar, and
// the dense operators are rescaled instead of rebuilt -- exact, because all
// surface geometry scales linearly with the box size and the Tikhonov
// filter is relative to the largest singular value.
//
// Requires a translation-invariant kernel for the FFT path (all bundled
// kernels are); V-list translations fall back to dense application per pair
// when FFT is disabled.
#pragma once

#include <complex>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fft/fft.hpp"
#include "fmm/kernel.hpp"
#include "fmm/surface.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace eroof::fmm {

/// Tunables of the method.
struct FmmConfig {
  static constexpr int kMinP = 3;   ///< smallest p Operators accepts
  static constexpr int kMaxP = 16;  ///< largest p Operators accepts
  int p = 6;                  ///< surface nodes per cube edge (accuracy knob)
  bool use_fft_m2l = true;
};

/// FFT'd M2L kernel tensors for all 343 relative offsets of one level, as
/// Hermitian half spectra in split real/imag layout: plane `rel` occupies
/// [rel*s, (rel+1)*s) of each array (s = Operators::spectrum_size()).
/// Near-field offsets that never occur in V lists are zero-filled. Shared
/// across levels for homogeneous kernels.
struct M2lBank {
  std::vector<double> re;
  std::vector<double> im;
};

/// Operators for one tree level.
struct LevelOperators {
  la::Matrix uc2e;                 ///< n_surf x n_surf
  la::Matrix dc2e;                 ///< n_surf x n_surf
  std::array<la::Matrix, 8> m2m;   ///< K(parent up-check, child-o up-equiv)
  std::array<la::Matrix, 8> l2l;   ///< K(child-o down-check, parent down-equiv)
  /// M2L spectra; apply as `m2l_scale * (bank plane rel)`. Null when the FFT
  /// path is disabled.
  std::shared_ptr<const M2lBank> m2l;
  double m2l_scale = 1.0;
  /// Surface-point offsets from a box center at this level's box size.
  SurfaceTemplate surf_inner;      ///< kRadiusInner (equiv-up / check-down)
  SurfaceTemplate surf_outer;      ///< kRadiusOuter (check-up / equiv-down)
};

/// Builder + owner of all per-level operators and the FFT grid layout.
class Operators {
 public:
  /// Tikhonov regularization of the check-to-equivalent solves.
  static constexpr double kTikhonovEps = 1e-10;

  /// `max_level`: deepest level that needs operators; `root_half`: domain
  /// half-width (level-l boxes have half-width root_half / 2^l).
  Operators(const Kernel& kernel, double root_half, int max_level,
            FmmConfig cfg);

  const FmmConfig& config() const { return cfg_; }
  int p() const { return cfg_.p; }

  /// FFT grid edge length m = 2p.
  std::size_t grid_m() const { return static_cast<std::size_t>(2 * cfg_.p); }
  /// The paper's full m^3 FFT grid: what one grid FFT transforms and what
  /// FmmStats' V tallies and the GPU profile count.
  std::size_t grid_size() const { return grid_m() * grid_m() * grid_m(); }
  /// Complex values of one Hermitian half spectrum as the host stores it:
  /// m * m * (m/2 + 1), the k <= m/2 half of the last axis.
  std::size_t spectrum_size() const {
    return grid_m() * grid_m() * (grid_m() / 2 + 1);
  }
  const fft::Plan3& plan() const { return plan_; }

  std::size_t n_surf() const { return surface_point_count(cfg_.p); }

  /// Linear FFT-grid index of surface node `s` (canonical surface order).
  const std::vector<std::size_t>& surf_to_grid() const {
    return surf_to_grid_;
  }

  const LevelOperators& level(int l) const;

  /// Index of relative offset (dx,dy,dz) in box-diameter units, each in
  /// [-3, 3]; returns nullopt for the near field (max |d| <= 1), which V
  /// lists never contain.
  static std::optional<std::size_t> rel_index(int dx, int dy, int dz);

  /// Materializes the (scaled) M2L spectrum of one relative offset as an
  /// interleaved complex m^3 grid, expanded from the stored half --
  /// reference/test accessor, not a hot path.
  /// Empty if `rel` is a near-field slot or the FFT path is disabled.
  std::vector<fft::cplx> m2l_spectrum(int level, std::size_t rel) const;

  /// Embeds an equivalent density (surface order) into a zeroed m^3 grid
  /// as its real part, and a second one, if given, as its imaginary part:
  /// one forward FFT then transforms both (see store_half).
  void embed(std::span<const double> surf_values, std::span<fft::cplx> grid,
             std::span<const double> imag_values = {}) const;

  /// Extracts check-surface values from an m^3 grid: real parts, and the
  /// imaginary parts into `imag_values` if given (see expand_half).
  void extract(std::span<const fft::cplx> grid, std::span<double> surf_values,
               std::span<double> imag_values = {}) const;

  /// Stores the k <= m/2 half of a forward-transformed grid Z into split
  /// planes of spectrum_size(). With one output, Z is the spectrum of a real
  /// grid and is copied. With two, Z = FFT(a + i b) of two real grids, and
  /// the halves of A = (Z + conj Z[-k]) / 2 and B = (Z - conj Z[-k]) / 2i
  /// go to (a_re, a_im) and (b_re, b_im).
  void store_half(std::span<const fft::cplx> grid, std::span<double> a_re,
                  std::span<double> a_im, std::span<double> b_re = {},
                  std::span<double> b_im = {}) const;

  /// Expands a half spectrum A to the full m^3 grid through
  /// X[-k] = conj X[k]. With a second half spectrum B, writes A + i B, whose
  /// inverse FFT carries a's grid in the real part and b's in the imaginary
  /// part.
  void expand_half(std::span<const double> a_re, std::span<const double> a_im,
                   std::span<fft::cplx> grid,
                   std::span<const double> b_re = {},
                   std::span<const double> b_im = {}) const;

 private:
  void build_level(const Kernel& kernel, int l, double root_half);
  void rescale_level(int l, int ref, double degree);
  std::shared_ptr<M2lBank> build_m2l_bank(const Kernel& kernel, double h);

  FmmConfig cfg_;
  fft::Plan3 plan_;
  std::vector<std::size_t> surf_to_grid_;
  std::vector<LevelOperators> levels_;
};

}  // namespace eroof::fmm
