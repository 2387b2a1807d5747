#include "gp/gaussian_process.hpp"

#include <cmath>
#include <cstring>
#include <numbers>

#include "common/error.hpp"

namespace dragster::gp {

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel, double noise_variance,
                                 double prior_mean)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance), prior_mean_(prior_mean) {
  DRAGSTER_REQUIRE(kernel_ != nullptr, "GaussianProcess requires a kernel");
  DRAGSTER_REQUIRE(noise_variance_ > 0.0, "noise variance must be positive");
}

GaussianProcess::GaussianProcess(const GaussianProcess& other)
    : kernel_(other.kernel_->clone()),
      noise_variance_(other.noise_variance_),
      prior_mean_(other.prior_mean_),
      flat_inputs_(other.flat_inputs_),
      targets_(other.targets_),
      chol_(other.chol_ ? std::make_unique<linalg::Cholesky>(*other.chol_) : nullptr),
      z_(other.z_),
      alpha_(other.alpha_),
      tracked_x_(other.tracked_x_),
      tracked_(other.tracked_) {}

GaussianProcess& GaussianProcess::operator=(const GaussianProcess& other) {
  if (this == &other) return *this;
  GaussianProcess copy(other);
  *this = std::move(copy);
  return *this;
}

namespace {

/// Row n of forward substitution L z = b, given z[0..n) and row n of L: the
/// exact per-element arithmetic of Cholesky::solve_lower.
double forward_step(std::span<const double> l_row, std::span<const double> z, double b) {
  double value = b;
  for (std::size_t k = 0; k < z.size(); ++k) value -= l_row[k] * z[k];
  return value / l_row[z.size()];
}

/// The points of `flat` (`count` rows of `dim`) that occur more than once,
/// compared by bit pattern, each listed once in first-seen order.
std::vector<double> repeated_points(std::span<const double> flat, std::size_t count,
                                    std::size_t dim) {
  std::vector<std::size_t> first;  // row of each distinct point's first occurrence
  std::vector<std::size_t> seen;   // occurrences per distinct point
  const std::size_t bytes = dim * sizeof(double);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t p = 0;
    while (p < first.size() &&
           std::memcmp(flat.data() + first[p] * dim, flat.data() + i * dim, bytes) != 0)
      ++p;
    if (p == first.size()) {
      first.push_back(i);
      seen.push_back(0);
    }
    ++seen[p];
  }
  std::vector<double> out;
  for (std::size_t p = 0; p < first.size(); ++p)
    if (seen[p] > 1)
      out.insert(out.end(), flat.begin() + first[p] * dim, flat.begin() + (first[p] + 1) * dim);
  return out;
}

}  // namespace

void GaussianProcess::add_observation(std::vector<double> x, double y) {
  append(x, y);
  rebuild_alpha();
}

void GaussianProcess::append(std::span<const double> x, double y) {
  const std::size_t d = kernel_->dimension();
  DRAGSTER_REQUIRE(x.size() == d, "observation dimension mismatch");
  DRAGSTER_REQUIRE(std::isfinite(y), "observation target must be finite");

  const std::size_t n = num_observations();
  const double diag = (*kernel_)(x, x) + noise_variance_;
  if (n == 0) {
    chol_ = std::make_unique<linalg::Cholesky>(linalg::Matrix(1, 1, diag));
  } else if (const std::size_t t = find_tracked(x); t != kUntracked) {
    // The new factor row L^{-1} k(X, x) is the tracked column itself.
    chol_->extend_solved(tracked_[t].v, tracked_[t].vv, diag);
  } else {
    linalg::Vector col(n);
    kernel_->eval_row(flat_inputs_, n, x, col);
    chol_->extend(col, diag);
  }

  const std::span<const double> l_row = chol_->row(n);
  z_.push_back(forward_step(l_row, z_, y - prior_mean_));
  for (std::size_t t = 0; t < tracked_.size(); ++t) {
    TrackedColumn& column = tracked_[t];
    // k(x, x_t) with x as the stored point: the operand order of the full
    // column eval_row(flat_inputs_, n + 1, x_t).
    double k_new = 0.0;
    kernel_->eval_row(x, 1, std::span<const double>(tracked_x_).subspan(t * d, d),
                      std::span<double>(&k_new, 1));
    const double v_new = forward_step(l_row, column.v, k_new);
    column.k.push_back(k_new);
    column.v.push_back(v_new);
    column.vv += v_new * v_new;
  }
  flat_inputs_.insert(flat_inputs_.end(), x.begin(), x.end());
  targets_.push_back(y);
}

void GaussianProcess::rebuild_alpha() { alpha_ = chol_->solve_upper(z_); }

void GaussianProcess::track(std::span<const double> xs, std::size_t count) {
  const std::size_t d = kernel_->dimension();
  DRAGSTER_REQUIRE(xs.size() == count * d, "track: packed point size mismatch");
  const std::size_t n = num_observations();
  for (std::size_t q = 0; q < count; ++q) {
    const std::span<const double> x = xs.subspan(q * d, d);
    if (find_tracked(x) != kUntracked) continue;
    TrackedColumn column;
    column.k.resize(n);
    kernel_->eval_row(flat_inputs_, n, x, column.k);
    if (n > 0) column.v = chol_->solve_lower(column.k);
    column.vv = linalg::dot(column.v, column.v);
    column.kxx = (*kernel_)(x, x);
    tracked_x_.insert(tracked_x_.end(), x.begin(), x.end());
    tracked_.push_back(std::move(column));
  }
}

std::size_t GaussianProcess::find_tracked(std::span<const double> x) const noexcept {
  // Bit patterns, not ==: a NaN point must find itself, and -0.0 and +0.0
  // are different points as far as the cached arithmetic is concerned.
  const std::size_t bytes = x.size() * sizeof(double);
  for (std::size_t t = 0; t < tracked_.size(); ++t)
    if (std::memcmp(tracked_x_.data() + t * x.size(), x.data(), bytes) == 0) return t;
  return kUntracked;
}

Posterior GaussianProcess::posterior(std::span<const double> k, double kxx, double vv) const {
  // variance = k(x,x) - k^T (K + s^2 I)^{-1} k = k(x,x) - v.v, v = L^{-1} k.
  Posterior post;
  post.mean = prior_mean_ + linalg::dot(k, alpha_);
  post.variance = kxx - vv;
  if (post.variance < 0.0) post.variance = 0.0;  // guard FP round-off
  return post;
}

Posterior GaussianProcess::predict(std::span<const double> x) const {
  DRAGSTER_REQUIRE(x.size() == kernel_->dimension(), "prediction dimension mismatch");
  const std::size_t n = num_observations();
  if (n == 0) return {prior_mean_, kernel_->prior_variance()};
  if (const std::size_t t = find_tracked(x); t != kUntracked)
    return posterior(tracked_[t].k, tracked_[t].kxx, tracked_[t].vv);

  linalg::Vector k(n);
  kernel_->eval_row(flat_inputs_, n, x, k);
  const linalg::Vector v = chol_->solve_lower(k);
  return posterior(k, (*kernel_)(x, x), linalg::dot(v, v));
}

void GaussianProcess::predict_batch(std::span<const double> xs, std::size_t count,
                                    std::span<Posterior> out) const {
  const std::size_t d = kernel_->dimension();
  DRAGSTER_REQUIRE(xs.size() == count * d, "predict_batch: packed query size mismatch");
  DRAGSTER_REQUIRE(out.size() == count, "predict_batch: output size mismatch");
  if (count == 0) return;
  const std::size_t n = num_observations();
  if (n == 0) {
    for (std::size_t q = 0; q < count; ++q) out[q] = {prior_mean_, kernel_->prior_variance()};
    return;
  }
  std::vector<std::size_t> untracked;
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t t = find_tracked(xs.subspan(q * d, d));
    if (t == kUntracked)
      untracked.push_back(q);
    else
      out[q] = posterior(tracked_[t].k, tracked_[t].kxx, tracked_[t].vv);
  }
  if (untracked.empty()) return;
  // Kernel columns, query-contiguous: column u spans k_all[u*n, u*n + n).
  const std::size_t m = untracked.size();
  std::vector<double> k_all(m * n);
  for (std::size_t u = 0; u < m; ++u)
    kernel_->eval_row(flat_inputs_, n, xs.subspan(untracked[u] * d, d),
                      std::span<double>(k_all).subspan(u * n, n));
  std::vector<double> v_all(m * n);
  chol_->solve_lower_multi(k_all, m, v_all);
  for (std::size_t u = 0; u < m; ++u) {
    const std::span<const double> x = xs.subspan(untracked[u] * d, d);
    const std::span<const double> k(k_all.data() + u * n, n);
    const std::span<const double> v(v_all.data() + u * n, n);
    out[untracked[u]] = posterior(k, (*kernel_)(x, x), linalg::dot(v, v));
  }
}

double GaussianProcess::log_marginal_likelihood() const {
  if (targets_.empty()) return 0.0;
  linalg::Vector centered(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) centered[i] = targets_[i] - prior_mean_;
  const double fit = linalg::dot(centered, alpha_);
  const double n = static_cast<double>(targets_.size());
  return -0.5 * fit - 0.5 * chol_->log_det() - 0.5 * n * std::log(2.0 * std::numbers::pi);
}

void GaussianProcess::reset() {
  flat_inputs_.clear();
  targets_.clear();
  chol_.reset();
  z_.clear();
  alpha_.clear();
  for (TrackedColumn& column : tracked_) {
    column.k.clear();
    column.v.clear();
    column.vv = 0.0;
  }
}

void GaussianProcess::save_state(resilience::SnapshotWriter& writer) const {
  writer.field("gp_dim", static_cast<std::uint64_t>(kernel_->dimension()));
  writer.field("gp_count", static_cast<std::uint64_t>(targets_.size()));
  writer.field("gp_inputs", std::span<const double>(flat_inputs_));
  writer.field("gp_targets", std::span<const double>(targets_));
  writer.field("gp_noise", noise_variance_);
  writer.field("gp_prior_mean", prior_mean_);
}

void GaussianProcess::load_state(const resilience::SnapshotReader& reader) {
  const std::size_t dim = reader.get_uint("gp_dim");
  DRAGSTER_REQUIRE(dim == kernel_->dimension(), "snapshot GP dimension mismatch");
  DRAGSTER_REQUIRE(reader.get_double("gp_noise") == noise_variance_,
                   "snapshot GP noise variance mismatch");
  DRAGSTER_REQUIRE(reader.get_double("gp_prior_mean") == prior_mean_,
                   "snapshot GP prior mean mismatch");
  const std::size_t count = reader.get_uint("gp_count");
  const std::vector<double> flat = reader.get_doubles("gp_inputs");
  const std::vector<double> ys = reader.get_doubles("gp_targets");
  DRAGSTER_REQUIRE(flat.size() == count * dim && ys.size() == count,
                   "snapshot GP observation arrays are inconsistent");
  // Built aside, so a snapshot that fails mid-replay leaves *this unchanged.
  GaussianProcess restored(kernel_->clone(), noise_variance_, prior_mean_);
  restored.track(tracked_x_, tracked_.size());
  // An observation at a tracked point extends the factor with the point's
  // cached column in O(n) instead of an O(n^2) solve, so track every input
  // the history repeats (in practice: the configuration grid) first.
  const std::vector<double> repeated = repeated_points(flat, count, dim);
  restored.track(repeated, repeated.size() / dim);
  for (std::size_t i = 0; i < count; ++i)
    restored.append(std::span<const double>(flat).subspan(i * dim, dim), ys[i]);
  if (count > 0) restored.rebuild_alpha();
  *this = std::move(restored);
}

double ucb_beta(std::size_t num_candidates, std::size_t t, double delta) {
  DRAGSTER_REQUIRE(num_candidates > 0, "need at least one candidate");
  DRAGSTER_REQUIRE(delta > 1.0, "paper requires delta in (1, inf)");
  const double tt = static_cast<double>(t == 0 ? 1 : t);
  const double pi_sq = std::numbers::pi * std::numbers::pi;
  const double beta =
      2.0 * std::log(static_cast<double>(num_candidates) * tt * tt * pi_sq * delta / 6.0);
  return beta > 0.0 ? beta : 1e-3;
}

InformationGainMeter::InformationGainMeter(double noise_variance)
    : inv_noise_(1.0 / noise_variance) {
  DRAGSTER_REQUIRE(noise_variance > 0.0, "noise variance must be positive");
}

void InformationGainMeter::record(double predictive_variance) {
  DRAGSTER_REQUIRE(predictive_variance >= 0.0, "variance must be non-negative");
  half_sum_ += 0.5 * std::log(1.0 + inv_noise_ * predictive_variance);
  ++rounds_;
}

}  // namespace dragster::gp
