#include "linalg/matrix.hpp"

#include <cmath>

#include "util/require.hpp"

namespace eroof::la {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    EROOF_REQUIRE_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  EROOF_REQUIRE(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Matrix::operator()(std::size_t r, std::size_t c) const {
  EROOF_REQUIRE(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  EROOF_REQUIRE(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
  EROOF_REQUIRE(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

double Matrix::frobenius_norm() const {
  double s = 0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  EROOF_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  return m;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  EROOF_REQUIRE(a.cols_ == b.rows_);
  Matrix c(a.rows_, b.cols_);
  // i-k-j loop order keeps the inner loop unit-stride for row-major storage.
  for (std::size_t i = 0; i < a.rows_; ++i) {
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data_.data() + k * b.cols_;
      double* crow = c.data_.data() + i * c.cols_;
      for (std::size_t j = 0; j < b.cols_; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix operator+(const Matrix& a, const Matrix& b) {
  EROOF_REQUIRE(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  Matrix c = a;
  for (std::size_t i = 0; i < c.data_.size(); ++i) c.data_[i] += b.data_[i];
  return c;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  EROOF_REQUIRE(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  Matrix c = a;
  for (std::size_t i = 0; i < c.data_.size(); ++i) c.data_[i] -= b.data_[i];
  return c;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  EROOF_REQUIRE(x.size() == a.cols());
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    double s = 0;
    for (std::size_t j = 0; j < row.size(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

void gemv_add(const Matrix& a, std::span<const double> x,
              std::span<double> y) {
  EROOF_REQUIRE(x.size() == a.cols() && y.size() == a.rows());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double* mat = a.data().data();
  const double* xs = x.data();
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* r0 = mat + i * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    // eroof-lint: allow(nondet-omp) simd-only reduction, fixed lane order
#pragma omp simd reduction(+ : s0, s1, s2, s3)
    for (std::size_t j = 0; j < n; ++j) {
      const double xj = xs[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    y[i] += s0;
    y[i + 1] += s1;
    y[i + 2] += s2;
    y[i + 3] += s3;
  }
  for (; i < m; ++i) {
    const double* row = mat + i * n;
    double s = 0;
    // eroof-lint: allow(nondet-omp) simd-only reduction, fixed lane order
#pragma omp simd reduction(+ : s)
    for (std::size_t j = 0; j < n; ++j) s += row[j] * xs[j];
    y[i] += s;
  }
}

}  // namespace eroof::la
