// Reverse-mode automatic differentiation on a scalar tape.
//
// The paper's implementation uses PyTorch autograd to differentiate the
// application-throughput function f_t(y) (a composition of the DAG's
// throughput functions) with respect to the per-operator capacities y_i;
// the gradient drives both bottleneck identification and the saddle-point /
// OGD solvers.  This module is the C++ substitute: expressions built from
// `Var` handles record into a `Tape`, and `Tape::gradient` runs one reverse
// sweep.
//
// `min` and `max` use the subgradient of the active branch (ties go to the
// first argument), which is exactly what a projected-(sub)gradient method
// needs for the truncated flow of paper eq. (4).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace dragster::autodiff {

class Tape;

/// Lightweight handle to a node on a tape.  Copyable; valid until the owning
/// tape is cleared or destroyed.
class Var {
 public:
  Var() = default;

  [[nodiscard]] double value() const;
  [[nodiscard]] Tape* tape() const noexcept { return tape_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }

 private:
  friend class Tape;
  Var(Tape* tape, std::size_t index) : tape_(tape), index_(index) {}

  Tape* tape_ = nullptr;
  std::size_t index_ = 0;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Creates an input (leaf) variable.
  Var variable(double value);
  /// Creates a constant (gets zero gradient).
  Var constant(double value);

  /// Computes d(root)/d(node) for every node; index by Var::index().
  [[nodiscard]] std::vector<double> gradient(Var root) const;

  /// Number of nodes recorded so far.
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Discards all nodes (invalidates outstanding Vars).
  void clear() noexcept { nodes_.clear(); }

  // -- operations ----------------------------------------------------------
  Var add(Var a, Var b);
  Var sub(Var a, Var b);
  Var mul(Var a, Var b);
  Var div(Var a, Var b);
  Var neg(Var a);
  Var min(Var a, Var b);
  Var max(Var a, Var b);
  Var tanh(Var a);
  Var log(Var a);
  Var exp(Var a);
  Var sqrt(Var a);
  Var pow(Var a, double exponent);
  Var abs(Var a);

  [[nodiscard]] double value_of(std::size_t index) const { return nodes_[index].value; }

 private:
  struct Node {
    double value = 0.0;
    // Up to two parents with the local partial derivatives of this node
    // with respect to each parent; kNoParent marks unused slots.
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
    std::size_t parent[2] = {kNoParent, kNoParent};
    double partial[2] = {0.0, 0.0};
  };

  Var unary(double value, Var a, double da);
  Var binary(double value, Var a, double da, Var b, double db);
  void check_owned(Var v) const;

  std::vector<Node> nodes_;
};

/// The values Tape::min / Tape::max / Tape::tanh record, on plain doubles, so
/// code templated on the scalar computes with either one.  Ties go to the
/// first argument, and any NaN operand selects the second — std::min and
/// std::max return the first one instead, so they are not interchangeable
/// with these where a value must match the tape bit for bit.
[[nodiscard]] inline double min(double a, double b) noexcept { return a <= b ? a : b; }
[[nodiscard]] inline double max(double a, double b) noexcept { return a >= b ? a : b; }
[[nodiscard]] inline double tanh(double a) noexcept { return std::tanh(a); }

// Free-function operator sugar; both operands must live on the same tape.
Var operator+(Var a, Var b);
Var operator-(Var a, Var b);
Var operator*(Var a, Var b);
Var operator/(Var a, Var b);
Var operator-(Var a);
Var operator+(Var a, double b);
Var operator+(double a, Var b);
Var operator-(Var a, double b);
Var operator-(double a, Var b);
Var operator*(Var a, double b);
Var operator*(double a, Var b);
Var operator/(Var a, double b);

Var min(Var a, Var b);
Var max(Var a, Var b);
Var tanh(Var a);
Var abs(Var a);

}  // namespace dragster::autodiff
