#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "fluid/relaxation.hpp"
#include "util/rng.hpp"
#include "workload/obstacles.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace sfn {
namespace {

using fluid::CellType;
using fluid::FlagGrid;
using fluid::GridF;
using fluid::MacGrid2;
using fluid::PcgParams;
using fluid::PcgSolver;
using fluid::Preconditioner;

FlagGrid open_box(int n) {
  FlagGrid flags(n, n, CellType::kFluid);
  flags.set_smoke_box_boundary();
  return flags;
}

GridF random_rhs(const FlagGrid& flags, std::uint64_t seed) {
  util::Rng rng(seed);
  GridF rhs(flags.nx(), flags.ny(), 0.0f);
  for (int j = 0; j < flags.ny(); ++j) {
    for (int i = 0; i < flags.nx(); ++i) {
      if (flags.is_fluid(i, j)) {
        rhs(i, j) = static_cast<float>(rng.uniform(-0.1, 0.1));
      }
    }
  }
  return rhs;
}

TEST(Pcg, SolvesToTolerance) {
  const FlagGrid flags = open_box(32);
  const GridF rhs = random_rhs(flags, 1);
  GridF p(32, 32, 0.0f);
  PcgSolver solver;
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(stats.residual, 1e-6);
  EXPECT_LE(fluid::poisson_residual(flags, rhs, p), 1e-6);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.flops, 0u);
}

TEST(Pcg, WarmStartConvergesInstantly) {
  const FlagGrid flags = open_box(24);
  const GridF rhs = random_rhs(flags, 2);
  GridF p(24, 24, 0.0f);
  PcgSolver solver;
  solver.solve(flags, rhs, &p);
  // Re-solving from the solution should take zero iterations.
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
}

TEST(Pcg, MicPreconditionerBeatsPlainCg) {
  const FlagGrid flags = open_box(48);
  const GridF rhs = random_rhs(flags, 3);

  GridF p1(48, 48, 0.0f);
  PcgParams mic;
  mic.preconditioner = Preconditioner::kMIC0;
  PcgSolver mic_solver(mic);
  const auto mic_stats = mic_solver.solve(flags, rhs, &p1);

  GridF p2(48, 48, 0.0f);
  PcgParams none;
  none.preconditioner = Preconditioner::kNone;
  PcgSolver cg_solver(none);
  const auto cg_stats = cg_solver.solve(flags, rhs, &p2);

  EXPECT_TRUE(mic_stats.converged);
  EXPECT_TRUE(cg_stats.converged);
  EXPECT_LT(mic_stats.iterations, cg_stats.iterations);
}

TEST(Pcg, HandlesObstacles) {
  FlagGrid flags = open_box(32);
  workload::Obstacle ob;
  ob.kind = workload::Obstacle::Kind::kCircle;
  ob.cx = 0.5;
  ob.cy = 0.5;
  ob.rx = ob.ry = 0.2;
  workload::rasterize_obstacles({ob}, &flags);
  ASSERT_LT(flags.count_fluid(), 30 * 30);

  const GridF rhs = random_rhs(flags, 4);
  GridF p(32, 32, 0.0f);
  PcgSolver solver;
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(fluid::poisson_residual(flags, rhs, p), 1e-6);
  // Pressure is zero outside fluid.
  EXPECT_FLOAT_EQ(p(16, 16), 0.0f);
}

TEST(Pcg, ZeroRhsGivesZeroSolution) {
  const FlagGrid flags = open_box(16);
  const GridF rhs(16, 16, 0.0f);
  GridF p(16, 16, 0.0f);
  PcgSolver solver;
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.iterations, 0);
  EXPECT_DOUBLE_EQ(p.max_abs(), 0.0);
}

TEST(Jacobi, ConvergesOnSmallGrid) {
  const FlagGrid flags = open_box(16);
  const GridF rhs = random_rhs(flags, 5);
  GridF p(16, 16, 0.0f);
  fluid::RelaxationParams params;
  params.tolerance = 1e-5;
  fluid::JacobiSolver solver(params);
  const auto stats = solver.solve(flags, rhs, &p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LE(fluid::poisson_residual(flags, rhs, p), 1e-5);
}

TEST(GaussSeidel, ConvergesFasterThanJacobi) {
  const FlagGrid flags = open_box(24);
  const GridF rhs = random_rhs(flags, 6);
  fluid::RelaxationParams params;
  params.tolerance = 1e-5;

  GridF pj(24, 24, 0.0f);
  fluid::JacobiSolver jacobi(params);
  const auto js = jacobi.solve(flags, rhs, &pj);

  GridF pg(24, 24, 0.0f);
  fluid::GaussSeidelSolver gs(params);
  const auto gss = gs.solve(flags, rhs, &pg);

  EXPECT_TRUE(js.converged);
  EXPECT_TRUE(gss.converged);
  EXPECT_LT(gss.iterations, js.iterations);
}

// ---------------------------------------------------------------------------
// Property sweep: every solver produces the same pressure (the system is
// nonsingular) across grid sizes and preconditioners.

struct SolverCase {
  std::string name;
  std::function<std::unique_ptr<fluid::PoissonSolver>()> make;
};

class SolverAgreement
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SolverAgreement, AllPreconditionersAgree) {
  const int n = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  const FlagGrid flags = open_box(n);
  const GridF rhs = random_rhs(flags, static_cast<std::uint64_t>(seed));

  GridF reference(n, n, 0.0f);
  PcgParams ref_params;
  ref_params.tolerance = 1e-8;
  PcgSolver ref(ref_params);
  ASSERT_TRUE(ref.solve(flags, rhs, &reference).converged);

  for (auto pre : {Preconditioner::kNone, Preconditioner::kJacobi,
                   Preconditioner::kIC0, Preconditioner::kMIC0}) {
    PcgParams params;
    params.preconditioner = pre;
    params.tolerance = 1e-8;
    PcgSolver solver(params);
    GridF p(n, n, 0.0f);
    ASSERT_TRUE(solver.solve(flags, rhs, &p).converged)
        << solver.name() << " n=" << n;
    double max_diff = 0.0;
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        max_diff = std::max(
            max_diff, std::abs(static_cast<double>(p(i, j)) - reference(i, j)));
      }
    }
    EXPECT_LT(max_diff, 5e-4) << solver.name() << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(GridsAndSeeds, SolverAgreement,
                         ::testing::Combine(::testing::Values(16, 24, 32),
                                            ::testing::Values(11, 22, 33)));

}  // namespace
}  // namespace sfn
