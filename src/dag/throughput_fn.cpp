#include "dag/throughput_fn.hpp"

#include <cmath>

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

double LinearFn::eval(std::span<const double> inputs) const {
  check_arity(weights_.size(), inputs.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) sum += weights_[i] * inputs[i];
  return sum;
}

autodiff::Var LinearFn::eval_var(autodiff::Tape& tape,
                                 std::span<const autodiff::Var> inputs) const {
  check_arity(weights_.size(), inputs.size());
  autodiff::Var sum = tape.constant(0.0);
  for (std::size_t i = 0; i < inputs.size(); ++i) sum = sum + inputs[i] * weights_[i];
  return sum;
}

std::unique_ptr<ThroughputFn> LinearFn::clone() const { return std::make_unique<LinearFn>(*this); }

MinWeightedFn::MinWeightedFn(std::vector<double> weights) : weights_(std::move(weights)) {
  DRAGSTER_REQUIRE(!weights_.empty(), "MinWeightedFn needs at least one weight");
  for (double w : weights_)
    DRAGSTER_REQUIRE(w >= 0.0, "MinWeightedFn weights must be non-negative");
}

double MinWeightedFn::eval(std::span<const double> inputs) const {
  check_arity(weights_.size(), inputs.size());
  double best = weights_[0] * inputs[0];
  for (std::size_t i = 1; i < inputs.size(); ++i) best = std::min(best, weights_[i] * inputs[i]);
  return best;
}

autodiff::Var MinWeightedFn::eval_var(autodiff::Tape& tape,
                                      std::span<const autodiff::Var> inputs) const {
  check_arity(weights_.size(), inputs.size());
  autodiff::Var best = inputs[0] * weights_[0];
  for (std::size_t i = 1; i < inputs.size(); ++i)
    best = autodiff::min(best, inputs[i] * weights_[i]);
  (void)tape;
  return best;
}

double MinWeightedFn::eval_as_taped(std::span<const double> inputs) const {
  check_arity(weights_.size(), inputs.size());
  double best = inputs[0] * weights_[0];
  for (std::size_t i = 1; i < inputs.size(); ++i)
    best = autodiff::min_value(best, inputs[i] * weights_[i]);
  return best;
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

double TanhFn::eval(std::span<const double> inputs) const {
  check_arity(arity(), inputs.size());
  double dot = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) dot += params_[i + 1] * inputs[i];
  return params_[0] * std::tanh(dot);
}

autodiff::Var TanhFn::eval_var(autodiff::Tape& tape,
                               std::span<const autodiff::Var> inputs) const {
  check_arity(arity(), inputs.size());
  autodiff::Var dot = tape.constant(0.0);
  for (std::size_t i = 0; i < inputs.size(); ++i) dot = dot + inputs[i] * params_[i + 1];
  return autodiff::tanh(dot) * params_[0];
}

std::unique_ptr<ThroughputFn> TanhFn::clone() const { return std::make_unique<TanhFn>(*this); }

CustomFn::CustomFn(std::size_t arity, EvalFn eval, EvalVarFn eval_var, std::string label)
    : arity_(arity), eval_(std::move(eval)), eval_var_(std::move(eval_var)), label_(std::move(label)) {
  DRAGSTER_REQUIRE(arity_ > 0, "CustomFn arity must be positive");
  DRAGSTER_REQUIRE(eval_ != nullptr, "CustomFn needs a double evaluator");
  DRAGSTER_REQUIRE(eval_var_ != nullptr, "CustomFn needs a Var evaluator");
}

double CustomFn::eval(std::span<const double> inputs) const {
  check_arity(arity_, inputs.size());
  return eval_(inputs);
}

autodiff::Var CustomFn::eval_var(autodiff::Tape& tape,
                                 std::span<const autodiff::Var> inputs) const {
  check_arity(arity_, inputs.size());
  return eval_var_(tape, inputs);
}

double CustomFn::eval_as_taped(std::span<const double> inputs) const {
  check_arity(arity_, inputs.size());
  autodiff::Tape tape;
  std::vector<autodiff::Var> vars;
  vars.reserve(inputs.size());
  for (double v : inputs) vars.push_back(tape.constant(v));
  return eval_var_(tape, vars).value();
}

std::unique_ptr<ThroughputFn> CustomFn::clone() const { return std::make_unique<CustomFn>(*this); }

std::unique_ptr<ThroughputFn> identity_fn() { return std::make_unique<LinearFn>(std::vector{1.0}); }

std::unique_ptr<ThroughputFn> selectivity_fn(double selectivity) {
  return std::make_unique<LinearFn>(std::vector{selectivity});
}

}  // namespace dragster::dag
