#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dragster::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    DRAGSTER_REQUIRE(row.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::span<double> Matrix::row(std::size_t r) noexcept { return {data_.data() + r * cols_, cols_}; }

std::span<const double> Matrix::row(std::size_t r) const noexcept {
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DRAGSTER_REQUIRE(same_shape(other), "shape mismatch in Matrix::operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& value : data_) value *= scalar;
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  DRAGSTER_REQUIRE(a.cols() == b.rows(), "shape mismatch in Matrix multiply");
  Matrix out(a.rows(), b.cols());
  // ikj loop order keeps the inner loop streaming over contiguous rows.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      // draglint:allow(DL004 sparsity skip: an exactly-zero factor contributes nothing)
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Vector operator*(const Matrix& a, const Vector& x) {
  DRAGSTER_REQUIRE(a.cols() == x.size(), "shape mismatch in Matrix-Vector multiply");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
  return y;
}

double dot(std::span<const double> a, std::span<const double> b) {
  DRAGSTER_REQUIRE(a.size() == b.size(), "size mismatch in dot");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  DRAGSTER_REQUIRE(x.size() == y.size(), "size mismatch in axpy");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  DRAGSTER_REQUIRE(a.size() == b.size(), "size mismatch in max_abs_diff");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace dragster::linalg
