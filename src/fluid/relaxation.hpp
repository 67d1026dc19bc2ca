#pragma once

#include "fluid/poisson.hpp"

namespace sfn::fluid {

struct RelaxationParams {
  double tolerance = 1e-6;
  int max_iterations = 20000;
  /// Check the residual only every `check_every` sweeps (it costs a pass).
  int check_every = 8;
};

/// Weighted-Jacobi iteration on the pressure system. Slow but trivially
/// parallel; kept as the classical low-accuracy baseline.
class JacobiSolver final : public PoissonSolver {
 public:
  explicit JacobiSolver(RelaxationParams params = {}, double omega = 0.8)
      : params_(params), omega_(omega) {}

  SolveStats solve(const FlagGrid& flags, const GridF& rhs,
                   GridF* pressure) override;
  [[nodiscard]] std::string name() const override { return "Jacobi"; }

 private:
  RelaxationParams params_;
  double omega_;
};

/// Red-black Gauss-Seidel: converges about twice as fast as Jacobi per
/// sweep and parallelises over each colour.
class GaussSeidelSolver final : public PoissonSolver {
 public:
  explicit GaussSeidelSolver(RelaxationParams params = {})
      : params_(params) {}

  SolveStats solve(const FlagGrid& flags, const GridF& rhs,
                   GridF* pressure) override;
  [[nodiscard]] std::string name() const override { return "GaussSeidel"; }

 private:
  RelaxationParams params_;
};

}  // namespace sfn::fluid
