#pragma once

#include "fluid/poisson.hpp"

#include <cstdint>
#include <vector>

namespace sfn::fluid {

/// Preconditioner choices for the conjugate-gradient pressure solver.
enum class Preconditioner {
  kNone,     ///< Plain CG.
  kJacobi,   ///< Diagonal scaling.
  kIC0,      ///< Incomplete Cholesky(0).
  kMIC0,     ///< Modified Incomplete Cholesky(0) — mantaflow's "MICCG(0)",
             ///< the paper's reference solver (Algorithm 1 lines 8-17).
};

struct PcgParams {
  Preconditioner preconditioner = Preconditioner::kMIC0;
  double tolerance = 1e-6;   ///< On the max-norm of the residual.
  int max_iterations = 600;
  /// MIC(0) blend: 0 gives plain IC(0), 0.97 is the standard tuned value.
  double mic_tau = 0.97;
  /// Diagonal safety clamp for MIC(0) (Bridson's sigma).
  double mic_sigma = 0.25;
};

/// Preconditioned conjugate gradients on the flag-aware pressure Laplacian.
///
/// The flags are compiled into a flat stencil (per-cell fluid and
/// neighbour-coupling bits, the diagonal of A and the preconditioner
/// factor) whenever they differ from the last solve's, so the iteration
/// itself never consults the FlagGrid. Passes are fused: apply-A with its
/// dot product, the p/r update with max|r| and the float copy of r, the
/// backward IC/MIC sweep with dot(z, r). The triangular sweeps run in
/// row-major order on the calling thread; every sum is combined in fixed
/// row order (fluid/reduce.hpp), so the result is bit-identical for any
/// OpenMP team size.
class PcgSolver final : public PoissonSolver {
 public:
  explicit PcgSolver(PcgParams params = {}) : params_(params) {}

  SolveStats solve(const FlagGrid& flags, const GridF& rhs,
                   GridF* pressure) override;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const PcgParams& params() const { return params_; }

 private:
  /// The flag grid compiled for the iteration, plus the per-solve vectors
  /// sized to it. A new resolution reallocates; new flags at the same
  /// resolution only recompute mask/diag/precond.
  struct Stencil {
    /// What mask/diag/precond were compiled from (empty before the
    /// first solve, so it never equals a real flag grid).
    FlagGrid flags;
    std::vector<std::uint8_t> mask;  ///< Fluid + coupling bits per cell.
    std::vector<double> diag;        ///< A's diagonal on fluid cells.
    /// IC/MIC: diag^(-1/2) of the factor. Jacobi: 1 / diag.
    std::vector<double> precond;
    // Iteration vectors. Every cell a solve reads is written earlier in
    // that same solve, so they are never cleared between solves.
    std::vector<double> p, r, s, as, z, q;
    std::vector<float> rf;            ///< r rounded for the preconditioner.
    std::vector<double> row_partial;  ///< One dot-product partial per row.
  };

  void compile(const FlagGrid& flags);
  void resize(int nx, int ny);

  PcgParams params_;
  Stencil st_;
};

}  // namespace sfn::fluid
