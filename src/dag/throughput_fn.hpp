// Edge throughput functions h_{i,j} (paper eq. 2a-2c, eq. 3).
//
// h_{i,j} maps the throughput vector *received by operator i* to the demand
// operator i would emit toward successor j if capacity were unlimited.  All
// built-in forms are increasing and concave in each input, which is what the
// paper's convexity argument for f_t(y) requires.  Each built-in form writes
// its body once, as a private template over the scalar, and evaluates it both
// on plain doubles (values) and on autodiff::Var (gradients for bottleneck
// identification and OGD).  min follows the tape's rule on either scalar
// (autodiff::min: ties pick the first operand, NaN propagates), so the two
// paths agree bit for bit, NaN inputs included.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "autodiff/tape.hpp"

namespace dragster::dag {

class ThroughputFn {
 public:
  virtual ~ThroughputFn() = default;

  /// Demand toward the successor given the inputs received by the operator.
  [[nodiscard]] virtual double eval(std::span<const double> inputs) const = 0;

  /// Same computation recorded on an autodiff tape; its value is
  /// bit-identical to eval() on the same inputs.
  [[nodiscard]] virtual autodiff::Var eval_var(autodiff::Tape& tape,
                                               std::span<const autodiff::Var> inputs) const = 0;

  /// Number of inputs this function consumes (the operator's in-degree).
  [[nodiscard]] virtual std::size_t arity() const noexcept = 0;

  /// Mutable parameter view for online learning (Theorem 2); empty when the
  /// form has no learnable parameters.
  [[nodiscard]] virtual std::span<double> params() noexcept { return {}; }
  [[nodiscard]] virtual std::span<const double> params() const noexcept { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<ThroughputFn> clone() const = 0;
};

/// Paper eq. (2a):  h(e) = k . e   (inner product).
class LinearFn final : public ThroughputFn {
 public:
  explicit LinearFn(std::vector<double> weights);

  [[nodiscard]] double eval(std::span<const double> inputs) const override;
  [[nodiscard]] autodiff::Var eval_var(autodiff::Tape& tape,
                                       std::span<const autodiff::Var> inputs) const override;
  [[nodiscard]] std::size_t arity() const noexcept override { return weights_.size(); }
  [[nodiscard]] std::span<double> params() noexcept override { return weights_; }
  [[nodiscard]] std::span<const double> params() const noexcept override { return weights_; }
  [[nodiscard]] std::string name() const override { return "linear"; }
  [[nodiscard]] std::unique_ptr<ThroughputFn> clone() const override;

 private:
  template <class T>
  T apply(std::span<const T> inputs, T zero) const;

  std::vector<double> weights_;
};

/// Paper eq. (2b):  h(e) = min_j (k_j * e_j)  — bottleneck predecessor.
class MinWeightedFn final : public ThroughputFn {
 public:
  explicit MinWeightedFn(std::vector<double> weights);

  [[nodiscard]] double eval(std::span<const double> inputs) const override;
  [[nodiscard]] autodiff::Var eval_var(autodiff::Tape& tape,
                                       std::span<const autodiff::Var> inputs) const override;
  [[nodiscard]] std::size_t arity() const noexcept override { return weights_.size(); }
  [[nodiscard]] std::span<double> params() noexcept override { return weights_; }
  [[nodiscard]] std::span<const double> params() const noexcept override { return weights_; }
  [[nodiscard]] std::string name() const override { return "min_weighted"; }
  [[nodiscard]] std::unique_ptr<ThroughputFn> clone() const override;

 private:
  template <class T>
  T apply(std::span<const T> inputs) const;

  std::vector<double> weights_;
};

/// Paper eq. (2c):  h(e) = k1 * tanh(k . e) — saturating concave form.
/// Parameters are laid out as [k1, k_0, ..., k_{n-1}].
class TanhFn final : public ThroughputFn {
 public:
  TanhFn(double scale, std::vector<double> weights);

  [[nodiscard]] double eval(std::span<const double> inputs) const override;
  [[nodiscard]] autodiff::Var eval_var(autodiff::Tape& tape,
                                       std::span<const autodiff::Var> inputs) const override;
  [[nodiscard]] std::size_t arity() const noexcept override { return params_.size() - 1; }
  [[nodiscard]] std::span<double> params() noexcept override { return params_; }
  [[nodiscard]] std::span<const double> params() const noexcept override { return params_; }
  [[nodiscard]] std::string name() const override { return "tanh"; }
  [[nodiscard]] std::unique_ptr<ThroughputFn> clone() const override;

 private:
  template <class T>
  T apply(std::span<const T> inputs, T zero) const;

  std::vector<double> params_;  // [scale, weights...]
};

/// User-supplied concave form (paper: "the developer could ... exactly
/// provide its throughput function").  Takes one evaluator, on the tape;
/// eval() records it on a throwaway tape, so values and gradients cannot
/// disagree.
class CustomFn final : public ThroughputFn {
 public:
  using EvalVarFn =
      std::function<autodiff::Var(autodiff::Tape&, std::span<const autodiff::Var>)>;

  CustomFn(std::size_t arity, EvalVarFn eval_var, std::string label = "custom");

  [[nodiscard]] double eval(std::span<const double> inputs) const override;
  [[nodiscard]] autodiff::Var eval_var(autodiff::Tape& tape,
                                       std::span<const autodiff::Var> inputs) const override;
  [[nodiscard]] std::size_t arity() const noexcept override { return arity_; }
  [[nodiscard]] std::string name() const override { return label_; }
  [[nodiscard]] std::unique_ptr<ThroughputFn> clone() const override;

 private:
  std::size_t arity_;
  EvalVarFn eval_var_;
  std::string label_;
};

/// Convenience: identity pass-through for single-input operators
/// (selectivity 1.0) — a LinearFn with weight 1.
[[nodiscard]] std::unique_ptr<ThroughputFn> identity_fn();

/// LinearFn with a single weight (per-tuple selectivity).
[[nodiscard]] std::unique_ptr<ThroughputFn> selectivity_fn(double selectivity);

}  // namespace dragster::dag
