// Property sweeps over the projection pipeline: for random scenes (grid
// size x seed x obstacle count), the discrete invariants that make the
// Eulerian solver correct must hold exactly or to solver tolerance.

#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "fluid/relaxation.hpp"
#include "fluid/smoke_sim.hpp"
#include "workload/problems.hpp"
#include "workload/turbulence.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sfn {
namespace {

struct SceneCase {
  int grid;
  int seed;
  int obstacles;
};

class ProjectionProperties : public ::testing::TestWithParam<SceneCase> {
 protected:
  static fluid::FlagGrid make_scene(const SceneCase& c) {
    fluid::FlagGrid flags(c.grid, c.grid, fluid::CellType::kFluid);
    flags.set_smoke_box_boundary();
    util::Rng rng(static_cast<std::uint64_t>(c.seed));
    workload::rasterize_obstacles(
        workload::random_obstacles(c.obstacles, rng), &flags);
    return flags;
  }

  static fluid::MacGrid2 make_velocity(const SceneCase& c,
                                       const fluid::FlagGrid& flags) {
    fluid::MacGrid2 vel(c.grid, c.grid);
    workload::TurbulenceParams params;
    params.amplitude = 0.4;
    workload::fill_turbulent_velocity(
        params, static_cast<std::uint64_t>(c.seed) * 31 + 7, &vel);
    // Add a non-solenoidal perturbation so the projection has work to do.
    util::Rng rng(static_cast<std::uint64_t>(c.seed) + 99);
    for (std::size_t k = 0; k < vel.u().size(); ++k) {
      vel.u()[k] += static_cast<float>(rng.uniform(-0.2, 0.2));
    }
    vel.enforce_solid_boundaries(flags);
    return vel;
  }
};

TEST_P(ProjectionProperties, PcgProjectionIsDivergenceFree) {
  const auto c = GetParam();
  const auto flags = make_scene(c);
  auto vel = make_velocity(c, flags);

  fluid::GridF div(c.grid, c.grid, 0.0f);
  fluid::divergence(vel, flags, &div);
  fluid::GridF rhs(c.grid, c.grid, 0.0f);
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    rhs[k] = -div[k];
  }
  fluid::GridF p(c.grid, c.grid, 0.0f);
  fluid::PcgSolver solver;
  const auto stats = solver.solve(flags, rhs, &p);
  ASSERT_TRUE(stats.converged);

  fluid::subtract_pressure_gradient(p, flags, &vel);
  vel.enforce_solid_boundaries(flags);
  EXPECT_LT(fluid::max_divergence(vel, flags), 5e-5);
}

TEST_P(ProjectionProperties, ProjectionIsIdempotent) {
  // Projecting an already divergence-free field changes nothing: the
  // solve returns (near) zero pressure.
  const auto c = GetParam();
  const auto flags = make_scene(c);
  auto vel = make_velocity(c, flags);

  // First projection.
  auto project = [&](fluid::MacGrid2* v) {
    fluid::GridF div(c.grid, c.grid, 0.0f);
    fluid::divergence(*v, flags, &div);
    fluid::GridF rhs(c.grid, c.grid, 0.0f);
    for (std::size_t k = 0; k < rhs.size(); ++k) {
      rhs[k] = -div[k];
    }
    fluid::GridF p(c.grid, c.grid, 0.0f);
    fluid::PcgSolver solver;
    solver.solve(flags, rhs, &p);
    fluid::subtract_pressure_gradient(p, flags, v);
    v->enforce_solid_boundaries(flags);
    return p;
  };
  project(&vel);
  const fluid::MacGrid2 before = vel;
  const auto p2 = project(&vel);

  EXPECT_LT(p2.max_abs(), 1e-4);
  double max_change = 0.0;
  for (std::size_t k = 0; k < vel.u().size(); ++k) {
    max_change = std::max(
        max_change, std::abs(static_cast<double>(vel.u()[k]) - before.u()[k]));
  }
  EXPECT_LT(max_change, 1e-4);
}

TEST_P(ProjectionProperties, SolversAgreeOnRandomScenes) {
  const auto c = GetParam();
  const auto flags = make_scene(c);
  const auto vel = make_velocity(c, flags);
  fluid::GridF div(c.grid, c.grid, 0.0f);
  fluid::divergence(vel, flags, &div);
  fluid::GridF rhs(c.grid, c.grid, 0.0f);
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    rhs[k] = -div[k];
  }

  fluid::PcgParams pcg_params;
  pcg_params.tolerance = 1e-8;
  fluid::PcgSolver pcg(pcg_params);
  fluid::GridF p_pcg(c.grid, c.grid, 0.0f);
  ASSERT_TRUE(pcg.solve(flags, rhs, &p_pcg).converged);

  // Unpreconditioned CG takes a different Krylov path to the same
  // solution; bound the gap by the achieved residual's worst-case
  // amplification through A^-1 (~(n/pi)^2 for smooth modes).
  fluid::PcgParams cg_params = pcg_params;
  cg_params.preconditioner = fluid::Preconditioner::kNone;
  fluid::PcgSolver cg(cg_params);
  fluid::GridF p_cg(c.grid, c.grid, 0.0f);
  const auto cg_stats = cg.solve(flags, rhs, &p_cg);
  ASSERT_TRUE(cg_stats.converged);
  const double achieved = std::max(cg_stats.residual, 1e-8);

  double max_diff = 0.0;
  for (std::size_t k = 0; k < p_pcg.size(); ++k) {
    max_diff = std::max(
        max_diff, std::abs(static_cast<double>(p_pcg[k]) - p_cg[k]));
  }
  const double amplification =
      (c.grid / 3.14159) * (c.grid / 3.14159);
  EXPECT_LT(max_diff, 3.0 * achieved * amplification + 1e-4);
}

TEST_P(ProjectionProperties, TurbulentInitIsDivergenceFree) {
  const auto c = GetParam();
  const fluid::FlagGrid all_fluid(c.grid, c.grid, fluid::CellType::kFluid);
  fluid::MacGrid2 vel(c.grid, c.grid);
  workload::fill_turbulent_velocity(
      {}, static_cast<std::uint64_t>(c.seed), &vel);
  EXPECT_LT(fluid::max_divergence(vel, all_fluid), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Scenes, ProjectionProperties,
    ::testing::Values(SceneCase{16, 1, 0}, SceneCase{16, 2, 1},
                      SceneCase{24, 3, 2}, SceneCase{32, 4, 0},
                      SceneCase{32, 5, 2}, SceneCase{48, 6, 1}));

// ---------------------------------------------------------------------------
// The simulation-level invariants across random problems.

class SimulationProperties : public ::testing::TestWithParam<int> {};

TEST_P(SimulationProperties, FullRunStaysPhysical) {
  workload::ProblemSetParams params;
  params.grid = 24;
  params.steps = 12;
  const auto problems = workload::generate_problems(
      1, params, static_cast<std::uint64_t>(GetParam()));
  auto sim = workload::make_sim(problems[0]);
  fluid::PcgSolver pcg;
  for (int step = 0; step < 12; ++step) {
    const auto t = sim.step(&pcg);
    ASSERT_TRUE(std::isfinite(t.div_norm));
    ASSERT_TRUE(t.solve.converged);
  }
  for (std::size_t k = 0; k < sim.density().size(); ++k) {
    ASSERT_GE(sim.density()[k], -1e-5f);
    ASSERT_LE(sim.density()[k], 1.0f + 1e-5f);
  }
  EXPECT_LE(sim.velocity().max_speed(),
            sim.params().max_velocity + 1e-6);
}

TEST_P(SimulationProperties, SloppySolverNeverBeatsExactOnDivNorm) {
  workload::ProblemSetParams params;
  params.grid = 24;
  params.steps = 8;
  const auto problems = workload::generate_problems(
      1, params, static_cast<std::uint64_t>(GetParam()) + 1000);

  auto run = [&](fluid::PoissonSolver* solver) {
    auto sim = workload::make_sim(problems[0]);
    double cdn = 0.0;
    for (int step = 0; step < 8; ++step) {
      cdn = sim.step(solver).cum_div_norm;
    }
    return cdn;
  };
  fluid::PcgSolver exact;
  fluid::RelaxationParams sloppy_params;
  sloppy_params.max_iterations = 2;
  sloppy_params.tolerance = 1e-12;
  fluid::JacobiSolver sloppy(sloppy_params);
  EXPECT_LT(run(&exact), run(&sloppy));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationProperties,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace sfn
