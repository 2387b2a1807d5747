// Cholesky factorization with incremental extension.
//
// The GP posterior (paper eq. 17) solves (K + sigma^2 I)^{-1} against kernel
// vectors; Cholesky is the numerically sound way to do that for SPD kernels.
// `extend` appends one observation in O(n^2) instead of refactorizing in
// O(n^3), which keeps per-slot controller cost flat as history grows.
//
// The factor L is stored packed lower-triangular, row-major: row i occupies
// offsets [i(i+1)/2, i(i+1)/2 + i].  Extending appends one row in place, so
// the factor holds n(n+1)/2 doubles and never copies its old rows.
// Forward substitution computes row i from rows 0..i only, which is why a
// caller may keep L^{-1}b current for a fixed b by appending one element per
// extension (see GaussianProcess::track).
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace dragster::linalg {

class Cholesky {
 public:
  /// Factors the SPD matrix `a` as L L^T.  If `a` is near-singular, a jitter
  /// of escalating magnitude (starting at `jitter`) is added to the diagonal;
  /// throws dragster::Error if factorization still fails after escalation.
  explicit Cholesky(const Matrix& a, double jitter = 1e-10);

  /// Solves A x = b: solve_upper(solve_lower(b)).
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves L z = b (forward substitution).
  [[nodiscard]] Vector solve_lower(const Vector& b) const;

  /// Solves L^T x = z (back substitution).
  [[nodiscard]] Vector solve_upper(const Vector& z) const;

  /// Forward-substitutes L Z = B for `nrhs` right-hand sides at once.
  /// `b` holds the columns contiguously (column r spans b[r*n, r*n + n)),
  /// `out` likewise.  Every column sees exactly the arithmetic of
  /// solve_lower — same accumulation order, same rounding — so each result
  /// is bit-identical to the single-RHS path.  The win is structural: one
  /// column is a latency-bound dependency chain, but the columns are
  /// independent, so the blocked row-major sweep turns the chain into
  /// unit-stride vector updates across right-hand sides.
  void solve_lower_multi(std::span<const double> b, std::size_t nrhs,
                         std::span<double> out) const;

  /// Appends one row/column to the factored matrix: `col` is the new
  /// off-diagonal column of A (length n), `diag` the new diagonal entry.
  /// The same escalating-jitter policy guards the new pivot.
  void extend(const Vector& col, double diag);

  /// extend() for a caller that already holds the new row: `r` must equal
  /// solve_lower(col) and `rr` must equal dot(r, r), bit for bit; then the
  /// factor ends identical to extend(col, diag)'s without the O(n^2) solve.
  void extend_solved(std::span<const double> r, double rr, double diag);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Row i of L: its i + 1 entries L(i, 0) .. L(i, i).
  [[nodiscard]] std::span<const double> row(std::size_t i) const noexcept {
    return {l_.data() + i * (i + 1) / 2, i + 1};
  }

  /// The packed rows back to back: n(n+1)/2 doubles.
  [[nodiscard]] std::span<const double> packed() const noexcept { return l_; }

  /// L as a dense n x n matrix with zeros above the diagonal.
  [[nodiscard]] Matrix factor() const;

  /// log det(A) = 2 * sum log L_ii — used by marginal-likelihood fitting.
  [[nodiscard]] double log_det() const;

 private:
  std::vector<double> l_;  // packed lower-triangular rows
  std::size_t n_ = 0;
  double jitter_;
};

}  // namespace dragster::linalg
