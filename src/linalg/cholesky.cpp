#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace dragster::linalg {
namespace {

/// Escalation bound for the retry loops: jitter * 10^(kMaxJitterAttempts-1)
/// is the largest diagonal boost tried before giving up.
constexpr int kMaxJitterAttempts = 12;

std::string format_jitter(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

// In-place factorization of the packed lower triangle `l` (n rows); returns
// false on a non-positive pivot so the caller can retry with jitter.
bool try_factor(std::vector<double>& l, std::size_t n) {
  auto at = [&l](std::size_t i, std::size_t j) -> double& { return l[i * (i + 1) / 2 + j]; };
  for (std::size_t j = 0; j < n; ++j) {
    double diag = at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= at(j, k) * at(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    at(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = at(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= at(i, k) * at(j, k);
      at(i, j) = value / ljj;
    }
  }
  return true;
}

}  // namespace

Cholesky::Cholesky(const Matrix& a, double jitter) : n_(a.rows()), jitter_(jitter) {
  DRAGSTER_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  double added = 0.0;
  for (int attempt = 0; attempt < kMaxJitterAttempts; ++attempt) {
    l_.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < i; ++j) l_.push_back(a(i, j));
      l_.push_back(added > 0.0 ? a(i, i) + added : a(i, i));
    }
    if (try_factor(l_, n_)) {
      if (added > 0.0)
        DRAGSTER_LOG(kWarn) << "Cholesky: matrix needed diagonal jitter " << format_jitter(added)
                            << " to factor (near-singular kernel matrix?)";
      return;
    }
    added = attempt == 0 ? jitter_ : added * 10.0;
  }
  // `added` overshot by one escalation when the loop exited; report the
  // largest value actually tried.
  throw dragster::Error("Cholesky: matrix is not positive definite even with jitter " +
                        format_jitter(added / 10.0));
}

Vector Cholesky::solve_lower(const Vector& b) const {
  DRAGSTER_REQUIRE(b.size() == n_, "size mismatch in Cholesky::solve_lower");
  Vector z(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::span<const double> li = row(i);
    double value = b[i];
    for (std::size_t k = 0; k < i; ++k) value -= li[k] * z[k];
    z[i] = value / li[i];
  }
  return z;
}

void Cholesky::solve_lower_multi(std::span<const double> b, std::size_t nrhs,
                                 std::span<double> out) const {
  const std::size_t n = n_;
  DRAGSTER_REQUIRE(b.size() == n * nrhs, "size mismatch in Cholesky::solve_lower_multi");
  DRAGSTER_REQUIRE(out.size() == n * nrhs, "output size mismatch in Cholesky::solve_lower_multi");
  if (n == 0 || nrhs == 0) return;
  // Row-major workspace: w[i * nrhs + r] is element i of column r, so the
  // inner updates stride unit across right-hand sides and vectorize.
  std::vector<double> w(n * nrhs);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t r = 0; r < nrhs; ++r) w[i * nrhs + r] = b[r * n + i];
  // Blocked forward substitution.  For each block of rows, first consume the
  // already-solved prefix (the panel), then the small triangle inside the
  // block.  Per element the subtraction order stays k = 0 .. i-1 ascending —
  // the exact solve_lower sequence — so blocking never perturbs a bit.
  constexpr std::size_t kBlock = 48;
  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t b1 = std::min(n, b0 + kBlock);
    for (std::size_t i = b0; i < b1; ++i) {
      double* wi = w.data() + i * nrhs;
      const std::span<const double> li = row(i);
      for (std::size_t k = 0; k < b0; ++k) {
        const double lik = li[k];
        const double* wk = w.data() + k * nrhs;
        for (std::size_t r = 0; r < nrhs; ++r) wi[r] -= lik * wk[r];
      }
    }
    for (std::size_t i = b0; i < b1; ++i) {
      double* wi = w.data() + i * nrhs;
      const std::span<const double> li = row(i);
      for (std::size_t k = b0; k < i; ++k) {
        const double lik = li[k];
        const double* wk = w.data() + k * nrhs;
        for (std::size_t r = 0; r < nrhs; ++r) wi[r] -= lik * wk[r];
      }
      const double lii = li[i];
      for (std::size_t r = 0; r < nrhs; ++r) wi[r] /= lii;
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t r = 0; r < nrhs; ++r) out[r * n + i] = w[i * nrhs + r];
}

Vector Cholesky::solve_upper(const Vector& z) const {
  DRAGSTER_REQUIRE(z.size() == n_, "size mismatch in Cholesky::solve_upper");
  Vector x(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    double value = z[ii];
    for (std::size_t k = ii + 1; k < n_; ++k) value -= l_[k * (k + 1) / 2 + ii] * x[k];
    x[ii] = value / l_[ii * (ii + 1) / 2 + ii];
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const { return solve_upper(solve_lower(b)); }

void Cholesky::extend(const Vector& col, double diag) {
  DRAGSTER_REQUIRE(col.size() == n_, "extend column must match current size");
  // New row r solves L r = col; new pivot is sqrt(diag - r.r).
  const Vector r = solve_lower(col);
  extend_solved(r, dot(r, r), diag);
}

void Cholesky::extend_solved(std::span<const double> r, double rr, double diag) {
  DRAGSTER_REQUIRE(r.size() == n_, "extend row must match current size");
  double pivot_sq = diag - rr;
  if (pivot_sq <= 0.0 || !std::isfinite(pivot_sq)) {
    double added = jitter_;
    for (int attempt = 1;
         attempt < kMaxJitterAttempts && std::isfinite(pivot_sq) && pivot_sq + added <= 0.0;
         ++attempt)
      added *= 10.0;
    if (!std::isfinite(pivot_sq) || pivot_sq + added <= 0.0)
      throw dragster::Error(
          "Cholesky::extend: update breaks positive definiteness even with jitter " +
          format_jitter(added));
    pivot_sq += added;
    DRAGSTER_LOG(kWarn) << "Cholesky::extend: pivot needed jitter " << format_jitter(added)
                        << " to stay positive (near-duplicate observation?)";
  }
  l_.insert(l_.end(), r.begin(), r.end());
  l_.push_back(std::sqrt(pivot_sq));
  ++n_;
}

Matrix Cholesky::factor() const {
  Matrix l(n_, n_);
  for (std::size_t i = 0; i < n_; ++i) std::copy_n(row(i).data(), i + 1, &l(i, 0));
  return l;
}

double Cholesky::log_det() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) sum += std::log(row(i)[i]);
  return 2.0 * sum;
}

}  // namespace dragster::linalg
