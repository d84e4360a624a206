// Dense row-major matrix of doubles.
//
// Sized for this project's needs: design matrices for the NNLS fit
// (~thousands x ~10) and KIFMM surface operators (~hundreds x ~hundreds).
// Simple O(n^3) kernels are deliberate -- they are nowhere near the critical
// path, and clarity wins.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace eroof::la {

/// Dense row-major matrix. Value type with move semantics; element access is
/// bounds-checked through EROOF_REQUIRE in debug-ish builds of the contract
/// macro (always on here).
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construct from nested initializer list (row major), e.g.
  /// Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  /// Contiguous view of row `r`.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  Matrix transposed() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Largest absolute entry of (this - other); matrices must be same shape.
  double max_abs_diff(const Matrix& other) const;

  friend Matrix operator*(const Matrix& a, const Matrix& b);
  friend Matrix operator+(const Matrix& a, const Matrix& b);
  friend Matrix operator-(const Matrix& a, const Matrix& b);
  Matrix& operator*=(double s);
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = A x  (dims must agree).
std::vector<double> matvec(const Matrix& a, std::span<const double> x);

/// y += A x, allocation-free. The FMM's UC2E/DC2E/M2M/L2L translations are
/// all applications of this form, so unlike the convenience matvec above it
/// is built for throughput: four rows per pass (x is streamed once per
/// block) with a simd-friendly inner loop.
void gemv_add(const Matrix& a, std::span<const double> x,
              std::span<double> y);

}  // namespace eroof::la
