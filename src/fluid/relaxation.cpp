#include "fluid/relaxation.hpp"

#include "util/timer.hpp"

#include <cmath>

namespace sfn::fluid {

namespace {

double cell_diag(const FlagGrid& flags, int i, int j) {
  double diag = 0.0;
  if (!flags.is_solid(i + 1, j)) diag += 1.0;
  if (!flags.is_solid(i - 1, j)) diag += 1.0;
  if (!flags.is_solid(i, j + 1)) diag += 1.0;
  if (!flags.is_solid(i, j - 1)) diag += 1.0;
  return diag;
}

double neighbour_sum(const FlagGrid& flags, const GridF& p, int i, int j) {
  double acc = 0.0;
  if (flags.is_fluid(i + 1, j)) acc += p(i + 1, j);
  if (flags.is_fluid(i - 1, j)) acc += p(i - 1, j);
  if (flags.is_fluid(i, j + 1)) acc += p(i, j + 1);
  if (flags.is_fluid(i, j - 1)) acc += p(i, j - 1);
  return acc;
}

/// One red-black Gauss-Seidel sweep (both colours).
void rbgs_sweep(const FlagGrid& flags, const GridF& rhs, GridF* p) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  for (int colour = 0; colour < 2; ++colour) {
#pragma omp parallel for schedule(static)
    for (int j = 0; j < ny; ++j) {
      for (int i = (j + colour) % 2; i < nx; i += 2) {
        if (!flags.is_fluid(i, j)) {
          continue;
        }
        const double diag = cell_diag(flags, i, j);
        if (diag == 0.0) {
          continue;
        }
        (*p)(i, j) = static_cast<float>(
            (rhs(i, j) + neighbour_sum(flags, *p, i, j)) / diag);
      }
    }
  }
}

}  // namespace

SolveStats JacobiSolver::solve(const FlagGrid& flags, const GridF& rhs,
                               GridF* pressure) {
  const util::Timer timer;
  const int nx = flags.nx();
  const int ny = flags.ny();
  const auto cells = static_cast<std::uint64_t>(nx) * ny;
  SolveStats stats;
  GridF next(nx, ny, 0.0f);

  int iter = 0;
  for (; iter < params_.max_iterations; ++iter) {
#pragma omp parallel for schedule(static)
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (!flags.is_fluid(i, j)) {
          next(i, j) = 0.0f;
          continue;
        }
        const double diag = cell_diag(flags, i, j);
        if (diag == 0.0) {
          next(i, j) = (*pressure)(i, j);
          continue;
        }
        const double gs =
            (rhs(i, j) + neighbour_sum(flags, *pressure, i, j)) / diag;
        next(i, j) = static_cast<float>((1.0 - omega_) * (*pressure)(i, j) +
                                        omega_ * gs);
      }
    }
    std::swap(*pressure, next);
    if ((iter + 1) % params_.check_every == 0) {
      stats.residual = poisson_residual(flags, rhs, *pressure);
      if (stats.residual <= params_.tolerance) {
        ++iter;
        stats.converged = true;
        break;
      }
    }
  }
  if (!stats.converged) {
    stats.residual = poisson_residual(flags, rhs, *pressure);
    stats.converged = stats.residual <= params_.tolerance;
  }
  stats.iterations = iter;
  stats.flops = static_cast<std::uint64_t>(iter) * cells * 8;
  stats.seconds = timer.seconds();
  return stats;
}

SolveStats GaussSeidelSolver::solve(const FlagGrid& flags, const GridF& rhs,
                                    GridF* pressure) {
  const util::Timer timer;
  const auto cells =
      static_cast<std::uint64_t>(flags.nx()) * flags.ny();
  SolveStats stats;

  int iter = 0;
  for (; iter < params_.max_iterations; ++iter) {
    rbgs_sweep(flags, rhs, pressure);
    if ((iter + 1) % params_.check_every == 0) {
      stats.residual = poisson_residual(flags, rhs, *pressure);
      if (stats.residual <= params_.tolerance) {
        ++iter;
        stats.converged = true;
        break;
      }
    }
  }
  if (!stats.converged) {
    stats.residual = poisson_residual(flags, rhs, *pressure);
    stats.converged = stats.residual <= params_.tolerance;
  }
  stats.iterations = iter;
  stats.flops = static_cast<std::uint64_t>(iter) * cells * 8;
  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace sfn::fluid
