#include "dag/throughput_fn.hpp"

#include "common/error.hpp"

namespace dragster::dag {
namespace {

void check_arity(std::size_t expected, std::size_t actual) {
  DRAGSTER_REQUIRE(expected == actual, "throughput function arity mismatch");
}

}  // namespace

LinearFn::LinearFn(std::vector<double> weights) : weights_(std::move(weights)) {
  DRAGSTER_REQUIRE(!weights_.empty(), "LinearFn needs at least one weight");
  for (double w : weights_) DRAGSTER_REQUIRE(w >= 0.0, "LinearFn weights must be non-negative");
}

template <class T>
T LinearFn::apply(std::span<const T> inputs, T zero) const {
  check_arity(weights_.size(), inputs.size());
  T sum = zero;
  for (std::size_t i = 0; i < inputs.size(); ++i) sum = sum + inputs[i] * weights_[i];
  return sum;
}

double LinearFn::eval(std::span<const double> inputs) const { return apply(inputs, 0.0); }

autodiff::Var LinearFn::eval_var(autodiff::Tape& tape,
                                 std::span<const autodiff::Var> inputs) const {
  return apply(inputs, tape.constant(0.0));
}

std::unique_ptr<ThroughputFn> LinearFn::clone() const { return std::make_unique<LinearFn>(*this); }

MinWeightedFn::MinWeightedFn(std::vector<double> weights) : weights_(std::move(weights)) {
  DRAGSTER_REQUIRE(!weights_.empty(), "MinWeightedFn needs at least one weight");
  for (double w : weights_)
    DRAGSTER_REQUIRE(w >= 0.0, "MinWeightedFn weights must be non-negative");
}

template <class T>
T MinWeightedFn::apply(std::span<const T> inputs) const {
  check_arity(weights_.size(), inputs.size());
  T best = inputs[0] * weights_[0];
  for (std::size_t i = 1; i < inputs.size(); ++i)
    best = autodiff::min(best, inputs[i] * weights_[i]);
  return best;
}

double MinWeightedFn::eval(std::span<const double> inputs) const { return apply(inputs); }

autodiff::Var MinWeightedFn::eval_var(autodiff::Tape& /*tape*/,
                                      std::span<const autodiff::Var> inputs) const {
  return apply(inputs);
}

std::unique_ptr<ThroughputFn> MinWeightedFn::clone() const {
  return std::make_unique<MinWeightedFn>(*this);
}

TanhFn::TanhFn(double scale, std::vector<double> weights) {
  DRAGSTER_REQUIRE(scale > 0.0, "TanhFn scale must be positive");
  DRAGSTER_REQUIRE(!weights.empty(), "TanhFn needs at least one weight");
  params_.reserve(weights.size() + 1);
  params_.push_back(scale);
  for (double w : weights) {
    DRAGSTER_REQUIRE(w >= 0.0, "TanhFn weights must be non-negative");
    params_.push_back(w);
  }
}

template <class T>
T TanhFn::apply(std::span<const T> inputs, T zero) const {
  check_arity(arity(), inputs.size());
  T dot = zero;
  for (std::size_t i = 0; i < inputs.size(); ++i) dot = dot + inputs[i] * params_[i + 1];
  return autodiff::tanh(dot) * params_[0];
}

double TanhFn::eval(std::span<const double> inputs) const { return apply(inputs, 0.0); }

autodiff::Var TanhFn::eval_var(autodiff::Tape& tape,
                               std::span<const autodiff::Var> inputs) const {
  return apply(inputs, tape.constant(0.0));
}

std::unique_ptr<ThroughputFn> TanhFn::clone() const { return std::make_unique<TanhFn>(*this); }

CustomFn::CustomFn(std::size_t arity, EvalVarFn eval_var, std::string label)
    : arity_(arity), eval_var_(std::move(eval_var)), label_(std::move(label)) {
  DRAGSTER_REQUIRE(arity_ > 0, "CustomFn arity must be positive");
  DRAGSTER_REQUIRE(eval_var_ != nullptr, "CustomFn needs a Var evaluator");
}

double CustomFn::eval(std::span<const double> inputs) const {
  autodiff::Tape tape;
  std::vector<autodiff::Var> vars;
  vars.reserve(inputs.size());
  for (double v : inputs) vars.push_back(tape.constant(v));
  return eval_var(tape, vars).value();
}

autodiff::Var CustomFn::eval_var(autodiff::Tape& tape,
                                 std::span<const autodiff::Var> inputs) const {
  check_arity(arity_, inputs.size());
  return eval_var_(tape, inputs);
}

std::unique_ptr<ThroughputFn> CustomFn::clone() const { return std::make_unique<CustomFn>(*this); }

std::unique_ptr<ThroughputFn> identity_fn() { return std::make_unique<LinearFn>(std::vector{1.0}); }

std::unique_ptr<ThroughputFn> selectivity_fn(double selectivity) {
  return std::make_unique<LinearFn>(std::vector{selectivity});
}

}  // namespace dragster::dag
