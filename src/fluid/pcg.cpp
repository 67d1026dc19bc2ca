#include "fluid/pcg.hpp"

#include "fluid/reduce.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>

namespace sfn::fluid {

namespace {

// Stencil mask bits. A coupling bit means that neighbour is a fluid cell,
// i.e. A holds -1 between the two; it is only set on fluid cells.
constexpr std::uint8_t kFluidCell = 1u << 0;
constexpr std::uint8_t kEast = 1u << 1;   // (i + 1, j)
constexpr std::uint8_t kWest = 1u << 2;   // (i - 1, j)
constexpr std::uint8_t kNorth = 1u << 3;  // (i, j + 1)
constexpr std::uint8_t kSouth = 1u << 4;  // (i, j - 1)

}  // namespace

void PcgSolver::resize(int nx, int ny) {
  const auto n = static_cast<std::size_t>(nx) * ny;
  if (st_.mask.size() == n && st_.flags.nx() == nx) {
    return;
  }
  for (auto* v : {&st_.diag, &st_.precond, &st_.p, &st_.r, &st_.s, &st_.as,
                  &st_.z, &st_.q}) {
    v->assign(n, 0.0);
  }
  st_.mask.assign(n, 0);
  st_.rf.assign(n, 0.0f);
  st_.row_partial.assign(static_cast<std::size_t>(ny), 0.0);
}

void PcgSolver::compile(const FlagGrid& flags) {
  const int nx = flags.nx();
  const int ny = flags.ny();
  resize(nx, ny);
  st_.flags = flags;
  std::uint8_t* const mask = st_.mask.data();
  double* const diag = st_.diag.data();
  double* const pc = st_.precond.data();

  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const std::size_t k = static_cast<std::size_t>(j) * nx + i;
      pc[k] = 0.0;
      if (!flags.is_fluid(i, j)) {
        mask[k] = 0;
        diag[k] = 0.0;
        continue;
      }
      mask[k] = static_cast<std::uint8_t>(
          kFluidCell | (flags.is_fluid(i + 1, j) ? kEast : 0) |
          (flags.is_fluid(i - 1, j) ? kWest : 0) |
          (flags.is_fluid(i, j + 1) ? kNorth : 0) |
          (flags.is_fluid(i, j - 1) ? kSouth : 0));
      // Neumann (solid/inflow/out-of-range) neighbours drop out of the
      // diagonal; empty ones stay in as Dirichlet p = 0.
      double d = 0.0;
      if (!flags.is_solid(i + 1, j)) d += 1.0;
      if (!flags.is_solid(i - 1, j)) d += 1.0;
      if (!flags.is_solid(i, j + 1)) d += 1.0;
      if (!flags.is_solid(i, j - 1)) d += 1.0;
      diag[k] = d;
    }
  }

  switch (params_.preconditioner) {
    case Preconditioner::kNone:
      return;
    case Preconditioner::kJacobi:
      for (std::size_t k = 0; k < st_.mask.size(); ++k) {
        if ((mask[k] & kFluidCell) != 0) {
          pc[k] = diag[k] > 0.0 ? 1.0 / diag[k] : 0.0;
        }
      }
      return;
    case Preconditioner::kIC0:
    case Preconditioner::kMIC0:
      break;
  }

  // Incomplete Cholesky: precond stores 1/sqrt of the modified diagonal;
  // the L entry to a coupled west/south neighbour is -precond there.
  const double tau =
      params_.preconditioner == Preconditioner::kMIC0 ? params_.mic_tau : 0.0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const std::size_t k = static_cast<std::size_t>(j) * nx + i;
      const std::uint8_t m = mask[k];
      if ((m & kFluidCell) == 0) {
        continue;
      }
      const double adiag = diag[k];
      double e = adiag;
      if ((m & kWest) != 0) {
        const double px = pc[k - 1];
        e -= px * px;
        if (tau > 0.0 && (mask[k - 1] & kNorth) != 0) {
          e -= tau * (px * px);
        }
      }
      if ((m & kSouth) != 0) {
        const double py = pc[k - nx];
        e -= py * py;
        if (tau > 0.0 && (mask[k - nx] & kEast) != 0) {
          e -= tau * (py * py);
        }
      }
      if (e < params_.mic_sigma * adiag) {
        e = adiag;  // Safety fallback keeps the factor positive definite.
      }
      pc[k] = e > 0.0 ? 1.0 / std::sqrt(e) : 0.0;
    }
  }
}

SolveStats PcgSolver::solve(const FlagGrid& flags, const GridF& rhs,
                            GridF* pressure) {
  SFN_TRACE_SCOPE("pcg.solve");
  static obs::Counter& solves = obs::counter("pcg.solves");
  static obs::Counter& iterations = obs::counter("pcg.iterations");
  static obs::Counter& precond_builds = obs::counter("pcg.precond_builds");
  static obs::Histogram& residuals = obs::histogram("pcg.residual");
  solves.add();
  const util::Timer timer;
  const int nx = flags.nx();
  const int ny = flags.ny();
  const auto cells = static_cast<std::uint64_t>(nx) * ny;
  SolveStats stats;

  // The kernels below index raw rows, so the shape invariant that
  // Grid2::index asserts per access is checked once here.
  SFN_CHECK(rhs.nx() == nx && rhs.ny() == ny && pressure->nx() == nx &&
                pressure->ny() == ny,
            "PcgSolver::solve: rhs/pressure shape differs from the flags");
  // Solver-boundary invariant (opt-in SFN_CHECK_NUMERICS): a non-finite
  // rhs would silently poison p through the very first apply-A.
  SFN_CHECK_FINITE(rhs.data().data(), rhs.size(), "PcgSolver::solve rhs");
  SFN_CHECK_FINITE(pressure->data().data(), pressure->size(),
                   "PcgSolver::solve initial pressure guess");

  if (!(st_.flags == flags)) {
    compile(flags);
    precond_builds.add();
    stats.flops += cells * 12;
  }

  const std::uint8_t* const mask = st_.mask.data();
  const double* const diag = st_.diag.data();
  const double* const pc = st_.precond.data();
  double* const p = st_.p.data();
  double* const r = st_.r.data();
  double* const s = st_.s.data();
  double* const as = st_.as.data();
  double* const z = st_.z.data();
  double* const q = st_.q.data();
  float* const rf = st_.rf.data();
  double* const row_partial = st_.row_partial.data();
  const float* const b = rhs.data().data();
  float* const out = pressure->data().data();
  const Preconditioner pre = params_.preconditioner;
  const double tolerance = params_.tolerance;
  const int max_iterations = params_.max_iterations;
  const auto at = [nx](int i, int j) {
    return static_cast<std::size_t>(j) * nx + i;
  };

  // p = initial guess on fluid cells; r = b - A p with its max and its
  // float copy alongside. The stencil reads the caller's pressure
  // directly: a coupled neighbour is fluid, where p equals it.
  double residual = 0.0;
#pragma omp parallel for schedule(static) reduction(max : residual)
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const std::size_t k = at(i, j);
      const std::uint8_t m = mask[k];
      if ((m & kFluidCell) == 0) {
        p[k] = 0.0;
        r[k] = 0.0;
        rf[k] = 0.0f;
        continue;
      }
      const double pk = out[k];
      double acc = diag[k] * pk;
      if ((m & kEast) != 0) acc -= out[k + 1];
      if ((m & kWest) != 0) acc -= out[k - 1];
      if ((m & kNorth) != 0) acc -= out[k + nx];
      if ((m & kSouth) != 0) acc -= out[k - nx];
      p[k] = pk;
      r[k] = b[k] - acc;
      residual = std::max(residual, std::abs(r[k]));
      rf[k] = static_cast<float>(r[k]);
    }
  }
  stats.residual = residual;
  if (residual <= tolerance) {
    // Converged on the initial guess: the caller's pressure is untouched.
    stats.converged = true;
    residuals.observe(residual);
    stats.seconds = timer.seconds();
    return stats;
  }

  // z = M^-1 rf; returns dot(z, r) summed per row, rows in fixed order.
  const auto precondition = [&] {
    const auto row_dot = [&](int j) {
      double acc = 0.0;
      for (int i = 0; i < nx; ++i) {
        const std::size_t k = at(i, j);
        if ((mask[k] & kFluidCell) != 0) acc += z[k] * r[k];
      }
      row_partial[j] = acc;
    };
    if (pre == Preconditioner::kNone || pre == Preconditioner::kJacobi) {
#pragma omp parallel for schedule(static)
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const std::size_t k = at(i, j);
          if ((mask[k] & kFluidCell) == 0) {
            z[k] = 0.0;
          } else if (pre == Preconditioner::kNone) {
            z[k] = rf[k];
          } else {
            z[k] = static_cast<float>(rf[k] * pc[k]);
          }
        }
        row_dot(j);
      }
      return sum_in_row_order(row_partial, ny);
    }
    // IC/MIC: each cell of a triangular solve reads its west/south (then
    // east/north) neighbour's result, so both sweeps run in row-major
    // order on the calling thread. Forward: L q = rf (off-diagonals of L
    // are -precond).
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t k = at(i, j);
        const std::uint8_t m = mask[k];
        if ((m & kFluidCell) == 0) continue;
        double t = rf[k];
        if ((m & kWest) != 0) t += pc[k - 1] * q[k - 1];
        if ((m & kSouth) != 0) t += pc[k - nx] * q[k - nx];
        q[k] = t * pc[k];
      }
    }
    // Backward: L^T z = q, z rounded to float per cell (the
    // preconditioner's single-precision output), fused with dot(z, r).
    for (int j = ny - 1; j >= 0; --j) {
      for (int i = nx - 1; i >= 0; --i) {
        const std::size_t k = at(i, j);
        const std::uint8_t m = mask[k];
        if ((m & kFluidCell) == 0) {
          z[k] = 0.0;
          continue;
        }
        double t = q[k];
        if ((m & kEast) != 0) t += pc[k] * z[k + 1];
        if ((m & kNorth) != 0) t += pc[k] * z[k + nx];
        z[k] = static_cast<float>(t * pc[k]);
      }
      row_dot(j);
    }
    return sum_in_row_order(row_partial, ny);
  };

  double sigma = precondition();
  std::copy(st_.z.begin(), st_.z.end(), st_.s.begin());

  int iter = 0;
  for (; iter < max_iterations; ++iter) {
    // as = A s, fused with the row partials of dot(s, as).
#pragma omp parallel for schedule(static)
    for (int j = 0; j < ny; ++j) {
      double row = 0.0;
      for (int i = 0; i < nx; ++i) {
        const std::size_t k = at(i, j);
        const std::uint8_t m = mask[k];
        if ((m & kFluidCell) == 0) {
          as[k] = 0.0;
          continue;
        }
        double acc = diag[k] * s[k];
        if ((m & kEast) != 0) acc -= s[k + 1];
        if ((m & kWest) != 0) acc -= s[k - 1];
        if ((m & kNorth) != 0) acc -= s[k + nx];
        if ((m & kSouth) != 0) acc -= s[k - nx];
        as[k] = acc;
        row += s[k] * acc;
      }
      row_partial[j] = row;
    }
    const double s_as = sum_in_row_order(row_partial, ny);
    if (s_as == 0.0) {
      break;
    }
    const double alpha = sigma / s_as;

    // p += alpha s, r -= alpha as, fused with max|r| and the float copy
    // of r the preconditioner reads.
    residual = 0.0;
#pragma omp parallel for schedule(static) reduction(max : residual)
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t k = at(i, j);
        if ((mask[k] & kFluidCell) != 0) {
          p[k] += alpha * s[k];
          r[k] -= alpha * as[k];
          residual = std::max(residual, std::abs(r[k]));
          rf[k] = static_cast<float>(r[k]);
        }
      }
    }
    if (residual <= tolerance) {
      ++iter;
      stats.converged = true;
      break;
    }

    const double sigma_new = precondition();
    const double beta = sigma_new / sigma;
    sigma = sigma_new;
#pragma omp parallel for schedule(static)
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::size_t k = at(i, j);
        if ((mask[k] & kFluidCell) != 0) s[k] = z[k] + beta * s[k];
      }
    }
  }

#pragma omp parallel for schedule(static)
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const std::size_t k = at(i, j);
      out[k] = (mask[k] & kFluidCell) != 0 ? static_cast<float>(p[k]) : 0.0f;
    }
  }

  SFN_CHECK_FINITE(pressure->data().data(), pressure->size(),
                   "PcgSolver::solve pressure result");

  stats.iterations = iter;
  stats.residual = residual;
  iterations.add(static_cast<std::uint64_t>(iter));
  residuals.observe(residual);
  // ~7 flops/cell for A, 2x2 for dots, 3x2 for axpy, ~14 for IC solves.
  stats.flops += static_cast<std::uint64_t>(iter + 1) * cells * 33;
  stats.seconds = timer.seconds();
  return stats;
}

std::string PcgSolver::name() const {
  switch (params_.preconditioner) {
    case Preconditioner::kNone: return "CG";
    case Preconditioner::kJacobi: return "JacobiPCG";
    case Preconditioner::kIC0: return "ICCG(0)";
    case Preconditioner::kMIC0: return "MICCG(0)";
  }
  return "PCG";
}

}  // namespace sfn::fluid
