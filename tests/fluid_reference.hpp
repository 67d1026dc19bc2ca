#pragma once

// Test-only reference implementations of the fluid layer's two hot loops,
// kept as the plain, obviously-correct versions the optimised kernels must
// reproduce bit for bit (the way Conv2D's kNaive serves the conv kernels):
//
//   * ReferencePcg — preconditioned CG written cell by cell against the
//     FlagGrid: every stencil access is a flag lookup, every pass its own
//     loop, the IC/MIC sweeps sequential row-major. PcgSolver compiles the
//     flags into a flat stencil and fuses and parallelises the passes;
//     fluid_parity_test checks that pressure bits and iteration counts
//     agree.
//   * interpolate / sample / advect_* — bilinear sampling through the
//     clamped floor_cell path and bounds-checked Grid2 reads, and the
//     semi-Lagrangian / MacCormack passes built on it. Grid2::interpolate
//     reads raw rows instead.

#include "fluid/advection.hpp"
#include "fluid/flags.hpp"
#include "fluid/grid2.hpp"
#include "fluid/mac_grid.hpp"
#include "fluid/pcg.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sfn::test::reference {

using fluid::FlagGrid;
using fluid::GridD;
using fluid::GridF;
using fluid::MacGrid2;
using fluid::PcgParams;
using fluid::Preconditioner;
using fluid::SolveStats;

class ReferencePcg {
 public:
  explicit ReferencePcg(PcgParams params = {}) : params_(params) {}

  /// Same contract as fluid::PcgSolver::solve (iterations, residual,
  /// converged and the pressure field; no timing or metrics).
  SolveStats solve(const FlagGrid& flags, const GridF& rhs, GridF* pressure) {
    const int nx = flags.nx();
    const int ny = flags.ny();
    SolveStats stats;
    build_preconditioner(flags);

    GridD p(nx, ny, 0.0);
    GridD r(nx, ny, 0.0);
    GridD as(nx, ny, 0.0);
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        p(i, j) = flags.is_fluid(i, j) ? (*pressure)(i, j) : 0.0;
      }
    }
    apply_a(flags, p, &as);
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        r(i, j) = flags.is_fluid(i, j) ? rhs(i, j) - as(i, j) : 0.0;
      }
    }
    double residual = max_abs(flags, r);
    if (residual <= params_.tolerance) {
      stats.converged = true;
      stats.residual = residual;
      return stats;
    }

    GridF rf(nx, ny, 0.0f);
    GridF zf(nx, ny, 0.0f);
    GridD z(nx, ny, 0.0);
    const auto precondition = [&] {
      for (std::size_t k = 0; k < r.size(); ++k) {
        rf[k] = static_cast<float>(r[k]);
      }
      apply_preconditioner(flags, rf, &zf);
      for (std::size_t k = 0; k < zf.size(); ++k) {
        z[k] = zf[k];
      }
    };
    precondition();
    GridD s = z;
    double sigma = dot(flags, z, r);

    int iter = 0;
    for (; iter < params_.max_iterations; ++iter) {
      apply_a(flags, s, &as);
      const double s_as = dot(flags, s, as);
      if (s_as == 0.0) {
        break;
      }
      const double alpha = sigma / s_as;
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          if (!flags.is_fluid(i, j)) continue;
          p(i, j) += alpha * s(i, j);
          r(i, j) -= alpha * as(i, j);
        }
      }
      residual = max_abs(flags, r);
      if (residual <= params_.tolerance) {
        ++iter;
        stats.converged = true;
        break;
      }
      precondition();
      const double sigma_new = dot(flags, z, r);
      const double beta = sigma_new / sigma;
      sigma = sigma_new;
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          if (!flags.is_fluid(i, j)) continue;
          s(i, j) = z(i, j) + beta * s(i, j);
        }
      }
    }

    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        (*pressure)(i, j) =
            flags.is_fluid(i, j) ? static_cast<float>(p(i, j)) : 0.0f;
      }
    }
    stats.iterations = iter;
    stats.residual = residual;
    return stats;
  }

 private:
  static bool coupled_x(const FlagGrid& flags, int i, int j) {
    return flags.is_fluid(i, j) && flags.is_fluid(i + 1, j);
  }
  static bool coupled_y(const FlagGrid& flags, int i, int j) {
    return flags.is_fluid(i, j) && flags.is_fluid(i, j + 1);
  }
  static double diag_entry(const FlagGrid& flags, int i, int j) {
    double diag = 0.0;
    if (!flags.is_solid(i + 1, j)) diag += 1.0;
    if (!flags.is_solid(i - 1, j)) diag += 1.0;
    if (!flags.is_solid(i, j + 1)) diag += 1.0;
    if (!flags.is_solid(i, j - 1)) diag += 1.0;
    return diag;
  }

  static void apply_a(const FlagGrid& flags, const GridD& p, GridD* out) {
    for (int j = 0; j < p.ny(); ++j) {
      for (int i = 0; i < p.nx(); ++i) {
        if (!flags.is_fluid(i, j)) {
          (*out)(i, j) = 0.0;
          continue;
        }
        double acc = diag_entry(flags, i, j) * p(i, j);
        if (flags.is_fluid(i + 1, j)) acc -= p(i + 1, j);
        if (flags.is_fluid(i - 1, j)) acc -= p(i - 1, j);
        if (flags.is_fluid(i, j + 1)) acc -= p(i, j + 1);
        if (flags.is_fluid(i, j - 1)) acc -= p(i, j - 1);
        (*out)(i, j) = acc;
      }
    }
  }

  /// Row partials summed left to right, then combined in row order.
  static double dot(const FlagGrid& flags, const GridD& a, const GridD& b) {
    double acc = 0.0;
    for (int j = 0; j < a.ny(); ++j) {
      double row = 0.0;
      for (int i = 0; i < a.nx(); ++i) {
        if (flags.is_fluid(i, j)) row += a(i, j) * b(i, j);
      }
      acc += row;
    }
    return acc;
  }

  static double max_abs(const FlagGrid& flags, const GridD& a) {
    double m = 0.0;
    for (int j = 0; j < a.ny(); ++j) {
      for (int i = 0; i < a.nx(); ++i) {
        if (flags.is_fluid(i, j)) m = std::max(m, std::abs(a(i, j)));
      }
    }
    return m;
  }

  void build_preconditioner(const FlagGrid& flags) {
    const int nx = flags.nx();
    const int ny = flags.ny();
    precond_ = GridD(nx, ny, 0.0);
    if (params_.preconditioner == Preconditioner::kJacobi) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          if (flags.is_fluid(i, j)) {
            const double d = diag_entry(flags, i, j);
            precond_(i, j) = d > 0.0 ? 1.0 / d : 0.0;
          }
        }
      }
      return;
    }
    const double tau = params_.preconditioner == Preconditioner::kMIC0
                           ? params_.mic_tau
                           : 0.0;
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (!flags.is_fluid(i, j)) {
          continue;
        }
        const double adiag = diag_entry(flags, i, j);
        double e = adiag;
        if (i > 0 && coupled_x(flags, i - 1, j)) {
          const double px = precond_(i - 1, j);
          e -= px * px;
          if (tau > 0.0 && coupled_y(flags, i - 1, j)) {
            e -= tau * (px * px);
          }
        }
        if (j > 0 && coupled_y(flags, i, j - 1)) {
          const double py = precond_(i, j - 1);
          e -= py * py;
          if (tau > 0.0 && coupled_x(flags, i, j - 1)) {
            e -= tau * (py * py);
          }
        }
        if (e < params_.mic_sigma * adiag) {
          e = adiag;
        }
        precond_(i, j) = e > 0.0 ? 1.0 / std::sqrt(e) : 0.0;
      }
    }
  }

  void apply_preconditioner(const FlagGrid& flags, const GridF& r, GridF* z) {
    const int nx = flags.nx();
    const int ny = flags.ny();
    switch (params_.preconditioner) {
      case Preconditioner::kNone:
        for (int j = 0; j < ny; ++j) {
          for (int i = 0; i < nx; ++i) {
            (*z)(i, j) = flags.is_fluid(i, j) ? r(i, j) : 0.0f;
          }
        }
        return;
      case Preconditioner::kJacobi:
        for (int j = 0; j < ny; ++j) {
          for (int i = 0; i < nx; ++i) {
            (*z)(i, j) = flags.is_fluid(i, j)
                             ? static_cast<float>(r(i, j) * precond_(i, j))
                             : 0.0f;
          }
        }
        return;
      case Preconditioner::kIC0:
      case Preconditioner::kMIC0:
        break;
    }
    GridD q(nx, ny, 0.0);
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        if (!flags.is_fluid(i, j)) {
          continue;
        }
        double t = r(i, j);
        if (i > 0 && coupled_x(flags, i - 1, j)) {
          t += precond_(i - 1, j) * q(i - 1, j);
        }
        if (j > 0 && coupled_y(flags, i, j - 1)) {
          t += precond_(i, j - 1) * q(i, j - 1);
        }
        q(i, j) = t * precond_(i, j);
      }
    }
    for (int j = ny - 1; j >= 0; --j) {
      for (int i = nx - 1; i >= 0; --i) {
        if (!flags.is_fluid(i, j)) {
          (*z)(i, j) = 0.0f;
          continue;
        }
        double t = q(i, j);
        if (coupled_x(flags, i, j)) {
          t += precond_(i, j) * (*z)(i + 1, j);
        }
        if (coupled_y(flags, i, j)) {
          t += precond_(i, j) * (*z)(i, j + 1);
        }
        (*z)(i, j) = static_cast<float>(t * precond_(i, j));
      }
    }
  }

  PcgParams params_;
  GridD precond_;
};

/// Bilinear sample of `grid` at grid-space (x, y): NaN-safe clamp, then
/// floor_cell and four bounds-checked reads.
inline float interpolate(const GridF& grid, double x, double y) {
  const int nx = grid.nx();
  const int ny = grid.ny();
  x = fluid::clamp_coord(x, 0.0, static_cast<double>(nx - 1));
  y = fluid::clamp_coord(y, 0.0, static_cast<double>(ny - 1));
  const int i0 = fluid::floor_cell(x, 0, nx - 2 >= 0 ? nx - 2 : 0);
  const int j0 = fluid::floor_cell(y, 0, ny - 2 >= 0 ? ny - 2 : 0);
  const int i1 = std::min(i0 + 1, nx - 1);
  const int j1 = std::min(j0 + 1, ny - 1);
  const double fx = x - i0;
  const double fy = y - j0;
  const double v00 = grid(i0, j0);
  const double v10 = grid(i1, j0);
  const double v01 = grid(i0, j1);
  const double v11 = grid(i1, j1);
  const double v0 = v00 + fx * (v10 - v00);
  const double v1 = v01 + fx * (v11 - v01);
  return static_cast<float>(v0 + fy * (v1 - v0));
}

inline std::pair<float, float> sample(const MacGrid2& vel, double x,
                                      double y) {
  return {interpolate(vel.u(), x, y - 0.5), interpolate(vel.v(), x - 0.5, y)};
}

inline std::pair<double, double> backtrace(const MacGrid2& vel, double x,
                                           double y, double dt,
                                           double cells_per_unit) {
  const auto [u1, v1] = sample(vel, x, y);
  const double mx = x - 0.5 * dt * u1 * cells_per_unit;
  const double my = y - 0.5 * dt * v1 * cells_per_unit;
  const auto [u2, v2] = sample(vel, mx, my);
  return {x - dt * u2 * cells_per_unit, y - dt * v2 * cells_per_unit};
}

inline void semi_lagrangian(const MacGrid2& vel, double dt,
                            double cells_per_unit, const GridF& src,
                            GridF* dst, double offset_x, double offset_y) {
  for (int j = 0; j < src.ny(); ++j) {
    for (int i = 0; i < src.nx(); ++i) {
      const double x = i + offset_x;
      const double y = j + offset_y;
      const auto [sx, sy] = backtrace(vel, x, y, dt, cells_per_unit);
      (*dst)(i, j) = interpolate(src, sx - offset_x, sy - offset_y);
    }
  }
}

inline float clamp_to_stencil(const GridF& grid, double gx, double gy,
                              float value) {
  const int i0 = fluid::floor_cell(gx, 0, grid.nx() - 1);
  const int j0 = fluid::floor_cell(gy, 0, grid.ny() - 1);
  const int i1 = std::min(i0 + 1, grid.nx() - 1);
  const int j1 = std::min(j0 + 1, grid.ny() - 1);
  float lo = grid(i0, j0);
  float hi = lo;
  for (const int i : {i0, i1}) {
    for (const int j : {j0, j1}) {
      lo = std::min(lo, grid(i, j));
      hi = std::max(hi, grid(i, j));
    }
  }
  return std::clamp(value, lo, hi);
}

inline void advect_grid(const MacGrid2& vel, double dt, const GridF& src,
                        GridF* dst, double offset_x, double offset_y,
                        fluid::AdvectionScheme scheme) {
  const double cells_per_unit = static_cast<double>(vel.nx());
  if (scheme == fluid::AdvectionScheme::kSemiLagrangian) {
    semi_lagrangian(vel, dt, cells_per_unit, src, dst, offset_x, offset_y);
    return;
  }
  GridF forward(src.nx(), src.ny(), 0.0f);
  GridF back(src.nx(), src.ny(), 0.0f);
  semi_lagrangian(vel, dt, cells_per_unit, src, &forward, offset_x, offset_y);
  semi_lagrangian(vel, -dt, cells_per_unit, forward, &back, offset_x,
                  offset_y);
  for (int j = 0; j < src.ny(); ++j) {
    for (int i = 0; i < src.nx(); ++i) {
      const float corrected = forward(i, j) + 0.5f * (src(i, j) - back(i, j));
      const auto [sx, sy] =
          backtrace(vel, i + offset_x, j + offset_y, dt, cells_per_unit);
      (*dst)(i, j) =
          clamp_to_stencil(src, sx - offset_x, sy - offset_y, corrected);
    }
  }
}

inline void advect_scalar(const MacGrid2& vel, const FlagGrid& flags,
                          double dt, const GridF& src, GridF* dst,
                          fluid::AdvectionScheme scheme) {
  advect_grid(vel, dt, src, dst, 0.5, 0.5, scheme);
  for (int j = 0; j < dst->ny(); ++j) {
    for (int i = 0; i < dst->nx(); ++i) {
      if (flags.is_solid(i, j)) {
        (*dst)(i, j) = src(i, j);
      }
    }
  }
}

inline void advect_velocity(const MacGrid2& vel, const FlagGrid& flags,
                            double dt, MacGrid2* dst,
                            fluid::AdvectionScheme scheme) {
  advect_grid(vel, dt, vel.u(), &dst->u(), 0.0, 0.5, scheme);
  advect_grid(vel, dt, vel.v(), &dst->v(), 0.5, 0.0, scheme);
  dst->enforce_solid_boundaries(flags);
}

}  // namespace sfn::test::reference
