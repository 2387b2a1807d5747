#include "autodiff/tape.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dragster::autodiff {

double Var::value() const {
  DRAGSTER_REQUIRE(tape_ != nullptr, "Var::value on default-constructed Var");
  return tape_->value_of(index_);
}

void Tape::check_owned(Var v) const {
  DRAGSTER_REQUIRE(v.tape() == this, "Var belongs to a different tape");
  DRAGSTER_REQUIRE(v.index() < nodes_.size(), "Var index out of range");
}

Var Tape::variable(double value) {
  nodes_.push_back(Node{.value = value});
  return Var(this, nodes_.size() - 1);
}

Var Tape::constant(double value) { return variable(value); }

Var Tape::unary(double value, Var a, double da) {
  check_owned(a);
  Node node{.value = value};
  node.parent[0] = a.index();
  node.partial[0] = da;
  nodes_.push_back(node);
  return Var(this, nodes_.size() - 1);
}

Var Tape::binary(double value, Var a, double da, Var b, double db) {
  check_owned(a);
  check_owned(b);
  Node node{.value = value};
  node.parent[0] = a.index();
  node.partial[0] = da;
  node.parent[1] = b.index();
  node.partial[1] = db;
  nodes_.push_back(node);
  return Var(this, nodes_.size() - 1);
}

Var Tape::add(Var a, Var b) { return binary(a.value() + b.value(), a, 1.0, b, 1.0); }
Var Tape::sub(Var a, Var b) { return binary(a.value() - b.value(), a, 1.0, b, -1.0); }
Var Tape::mul(Var a, Var b) { return binary(a.value() * b.value(), a, b.value(), b, a.value()); }

Var Tape::div(Var a, Var b) {
  const double bv = b.value();
  // draglint:allow(DL004 exact-zero precondition: only bv == 0.0 divides by zero)
  DRAGSTER_REQUIRE(bv != 0.0, "division by zero on tape");
  return binary(a.value() / bv, a, 1.0 / bv, b, -a.value() / (bv * bv));
}

Var Tape::neg(Var a) { return unary(-a.value(), a, -1.0); }

Var Tape::min(Var a, Var b) {
  const bool pick_a = a.value() <= b.value();
  return binary(autodiff::min(a.value(), b.value()), a, pick_a ? 1.0 : 0.0, b, pick_a ? 0.0 : 1.0);
}

Var Tape::max(Var a, Var b) {
  const bool pick_a = a.value() >= b.value();
  return binary(autodiff::max(a.value(), b.value()), a, pick_a ? 1.0 : 0.0, b, pick_a ? 0.0 : 1.0);
}

Var Tape::tanh(Var a) {
  const double t = std::tanh(a.value());
  return unary(t, a, 1.0 - t * t);
}

Var Tape::log(Var a) {
  DRAGSTER_REQUIRE(a.value() > 0.0, "log of non-positive value on tape");
  return unary(std::log(a.value()), a, 1.0 / a.value());
}

Var Tape::exp(Var a) {
  const double e = std::exp(a.value());
  return unary(e, a, e);
}

Var Tape::sqrt(Var a) {
  DRAGSTER_REQUIRE(a.value() >= 0.0, "sqrt of negative value on tape");
  const double s = std::sqrt(a.value());
  // draglint:allow(DL004 exact-zero guard: derivative 0.5/s is singular only at s == 0.0)
  return unary(s, a, s == 0.0 ? 0.0 : 0.5 / s);
}

Var Tape::pow(Var a, double exponent) {
  const double v = std::pow(a.value(), exponent);
  // draglint:allow(DL004 exact-zero guard: the quotient form is singular only at exactly 0.0)
  const double da = a.value() == 0.0 ? 0.0 : exponent * v / a.value();
  return unary(v, a, da);
}

Var Tape::abs(Var a) {
  const double v = a.value();
  return unary(std::abs(v), a, v >= 0.0 ? 1.0 : -1.0);
}

std::vector<double> Tape::gradient(Var root) const {
  check_owned(root);
  std::vector<double> adjoint(nodes_.size(), 0.0);
  adjoint[root.index()] = 1.0;
  // Nodes are recorded in topological order (parents precede children), so a
  // single reverse sweep propagates every adjoint.
  for (std::size_t i = root.index() + 1; i-- > 0;) {
    const Node& node = nodes_[i];
    const double adj = adjoint[i];
    // draglint:allow(DL004 sparsity skip: propagating an exactly-zero adjoint is a no-op)
    if (adj == 0.0) continue;
    for (int p = 0; p < 2; ++p) {
      if (node.parent[p] == Node::kNoParent) continue;
      adjoint[node.parent[p]] += adj * node.partial[p];
    }
  }
  return adjoint;
}

namespace {
Tape& tape_of(Var a) {
  DRAGSTER_REQUIRE(a.tape() != nullptr, "operation on default-constructed Var");
  return *a.tape();
}
}  // namespace

Var operator+(Var a, Var b) { return tape_of(a).add(a, b); }
Var operator-(Var a, Var b) { return tape_of(a).sub(a, b); }
Var operator*(Var a, Var b) { return tape_of(a).mul(a, b); }
Var operator/(Var a, Var b) { return tape_of(a).div(a, b); }
Var operator-(Var a) { return tape_of(a).neg(a); }
Var operator+(Var a, double b) { return a + tape_of(a).constant(b); }
Var operator+(double a, Var b) { return tape_of(b).constant(a) + b; }
Var operator-(Var a, double b) { return a - tape_of(a).constant(b); }
Var operator-(double a, Var b) { return tape_of(b).constant(a) - b; }
Var operator*(Var a, double b) { return a * tape_of(a).constant(b); }
Var operator*(double a, Var b) { return tape_of(b).constant(a) * b; }
Var operator/(Var a, double b) { return a / tape_of(a).constant(b); }

Var min(Var a, Var b) { return tape_of(a).min(a, b); }
Var max(Var a, Var b) { return tape_of(a).max(a, b); }
Var tanh(Var a) { return tape_of(a).tanh(a); }
Var abs(Var a) { return tape_of(a).abs(a); }

}  // namespace dragster::autodiff
