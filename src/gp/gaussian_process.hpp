// Gaussian-process regression with noisy observations (paper eq. 17).
//
// One instance models one operator's capacity function y_i(x_i); the
// controller appends an observation per slot, so the posterior is maintained
// incrementally.  Per observation the GP keeps:
//   - the packed Cholesky factor L of (K + sigma^2 I), extended by one row;
//   - z = L^{-1} (y - m), extended by one forward-substitution element, so
//     alpha = L^{-T} z costs one O(n^2) back substitution;
//   - for every tracked query point x (track()), k(X, x), v = L^{-1} k(X, x)
//     and v.v, each extended by one element in O(n).
// The posterior at a tracked point then costs O(n) (eq. 17: one dot product
// with alpha), and an observation at a tracked point reuses v as its new
// factor row.  Every cached value is computed with the exact arithmetic of
// the from-scratch path, so tracking never changes a bit of any result.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "resilience/snapshot.hpp"

namespace dragster::gp {

struct Posterior {
  double mean = 0.0;
  double variance = 0.0;
};

class GaussianProcess {
 public:
  /// `noise_variance` is sigma^2 of the observation model c = y + eps.
  /// `prior_mean` is the constant GP mean m(x); capacity priors are centred
  /// on a rough capacity scale rather than zero so the first UCB steps are
  /// sensible.
  GaussianProcess(std::unique_ptr<Kernel> kernel, double noise_variance, double prior_mean = 0.0);

  GaussianProcess(const GaussianProcess& other);
  GaussianProcess& operator=(const GaussianProcess& other);
  GaussianProcess(GaussianProcess&&) noexcept = default;
  GaussianProcess& operator=(GaussianProcess&&) noexcept = default;

  /// Appends one (x, y) observation and updates the posterior.
  void add_observation(std::vector<double> x, double y);

  /// Keeps the posterior at each of the `count` points packed row-major in
  /// `xs` current from now on, so predict()/predict_batch() there cost O(n).
  /// Idempotent: points already tracked (compared by bit pattern) are
  /// skipped, and each new one costs one O(n^2) forward solve.  Results are
  /// bit-identical with or without tracking.
  void track(std::span<const double> xs, std::size_t count);

  /// Posterior mean/variance at a point (paper eq. 17).  With no
  /// observations, returns the prior.
  [[nodiscard]] Posterior predict(std::span<const double> x) const;

  /// Batched posterior: `xs` packs `count` query points row-major
  /// (count * dimension doubles); out[q] receives the posterior at query q,
  /// bit-identical to predict() on the same point.  Tracked queries read
  /// their cached columns; the others share one kernel-row sweep per query
  /// plus a single multi-RHS forward solve.
  void predict_batch(std::span<const double> xs, std::size_t count,
                     std::span<Posterior> out) const;

  [[nodiscard]] std::size_t num_observations() const noexcept { return targets_.size(); }
  [[nodiscard]] double noise_variance() const noexcept { return noise_variance_; }
  [[nodiscard]] double prior_mean() const noexcept { return prior_mean_; }
  [[nodiscard]] const Kernel& kernel() const noexcept { return *kernel_; }

  /// log p(y | X) under the current hyperparameters; used by the
  /// marginal-likelihood sanity tests and the lengthscale sweep ablation.
  [[nodiscard]] double log_marginal_likelihood() const;

  /// Drops all observations but keeps hyperparameters and tracked points.
  void reset();

  /// Raw observation targets (diagnostics).
  [[nodiscard]] const linalg::Vector& targets() const noexcept { return targets_; }

  /// Derived posterior state, exposed for the bit-identity tests: the factor
  /// (null before the first observation), z = L^{-1} (y - m) and
  /// alpha = (K + sigma^2 I)^{-1} (y - m).
  [[nodiscard]] const linalg::Cholesky* cholesky() const noexcept { return chol_.get(); }
  [[nodiscard]] const linalg::Vector& whitened_targets() const noexcept { return z_; }
  [[nodiscard]] const linalg::Vector& alpha() const noexcept { return alpha_; }

  /// Writes the observation history and hyperparameters into the writer's
  /// current section (keys prefixed `gp_`).  The Cholesky factor is not
  /// serialized: load_state() replays the observations in order, rebuilding
  /// the factor through the identical incremental-extension sequence, so the
  /// restored posterior is bit-identical to the saved one.
  void save_state(resilience::SnapshotWriter& writer) const;

  /// Restores from a section written by save_state() in one pass: every
  /// observation extends the factor, z and the tracked columns, and alpha is
  /// back-substituted once at the end.  Inputs the history repeats are
  /// tracked first, so each repeat extends the factor in O(n).  The kernel
  /// must already be configured identically (dimension and hyperparameters
  /// are validated); existing observations are discarded, tracked points are
  /// kept.  On a throw the GP is left unchanged.
  void load_state(const resilience::SnapshotReader& reader);

 private:
  /// Cached posterior terms at one tracked point x, one entry per observation.
  struct TrackedColumn {
    linalg::Vector k;  // k(X, x)
    linalg::Vector v;  // L^{-1} k(X, x)
    double vv = 0.0;   // v . v, summed in ascending order like linalg::dot
    double kxx = 0.0;  // k(x, x)
  };
  static constexpr std::size_t kUntracked = static_cast<std::size_t>(-1);

  /// Extends the factor, z and the tracked columns by one observation;
  /// alpha is left stale until rebuild_alpha().
  void append(std::span<const double> x, double y);
  void rebuild_alpha();
  [[nodiscard]] std::size_t find_tracked(std::span<const double> x) const noexcept;
  [[nodiscard]] Posterior posterior(std::span<const double> k, double kxx, double vv) const;

  std::unique_ptr<Kernel> kernel_;
  double noise_variance_;
  double prior_mean_;
  std::vector<double> flat_inputs_;    // observed inputs, row-major
  linalg::Vector targets_;             // raw y values
  // draglint:allow(DL009 posterior factor derived from flat_inputs_ when load_state replays them)
  std::unique_ptr<linalg::Cholesky> chol_;  // factor of K + sigma^2 I
  // draglint:allow(DL009 forward solve of targets_, extended as load_state replays observations)
  linalg::Vector z_;                   // L^{-1} (y - m)
  // draglint:allow(DL009 posterior weights derived from z_ via rebuild_alpha)
  linalg::Vector alpha_;               // (K + sigma^2 I)^{-1} (y - m)
  // draglint:allow(DL009 acceleration set, not state: load_state keeps it, adds repeated inputs)
  std::vector<double> tracked_x_;      // tracked points, row-major
  // draglint:allow(DL009 cached columns derived from tracked_x_ and the replayed observations)
  std::vector<TrackedColumn> tracked_;  // parallel to tracked_x_
};

/// Paper UCB weight: beta_t = 2 log(|X| t^2 pi^2 delta / 6), delta > 1.
/// Clamped below at a small positive value so early slots still explore.
[[nodiscard]] double ucb_beta(std::size_t num_candidates, std::size_t t, double delta);

/// Accumulates sum_t log(1 + sigma^{-2} sigma_{t-1}^2(x_t)) — the empirical
/// information gain that Theorem 1 bounds by Gamma_T.
class InformationGainMeter {
 public:
  explicit InformationGainMeter(double noise_variance);

  void record(double predictive_variance);

  [[nodiscard]] double gain() const noexcept { return half_sum_ ; }
  [[nodiscard]] std::size_t rounds() const noexcept { return rounds_; }

 private:
  double inv_noise_;
  double half_sum_ = 0.0;
  std::size_t rounds_ = 0;
};

}  // namespace dragster::gp
