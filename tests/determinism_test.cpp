// Determinism layer for the serving engine: the same seeded problem must
// produce bit-identical fields and identical switch-event sequences
// whether it runs solo (run_fixed / run_adaptive on the calling thread)
// or through a SessionServer with any worker count, with cross-session
// batching on or off, and under any OpenMP team size. The guarantees rest
// on the fixed-order reductions of fluid/reduce.hpp (DESIGN.md §12); this
// suite is the executable statement of that contract.

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "serve/session_server.hpp"
#include "serve_test_support.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

namespace sfn {
namespace {

/// Bitwise equality of two density fields (== on floats would let
/// -0.0 == 0.0 slip through; the contract is stronger than value
/// equality).
void expect_bit_identical(const fluid::GridF& expected,
                          const fluid::GridF& actual,
                          const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const float a = expected[k];
    const float b = actual[k];
    if (std::memcmp(&a, &b, sizeof(float)) != 0) {
      ++mismatches;
      if (mismatches <= 3) {
        ADD_FAILURE() << label << ": cell " << k << " differs: " << a
                      << " vs " << b;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

/// Switch-event sequences must match decision-for-decision. The only
/// field excluded is seconds_offset — wall-clock, inherently noisy.
void expect_same_events(const std::vector<runtime::SwitchEvent>& expected,
                        const std::vector<runtime::SwitchEvent>& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].step, actual[i].step) << label << " event " << i;
    EXPECT_EQ(expected[i].decision, actual[i].decision)
        << label << " event " << i;
    EXPECT_EQ(expected[i].from_candidate, actual[i].from_candidate)
        << label << " event " << i;
    EXPECT_EQ(expected[i].to_candidate, actual[i].to_candidate)
        << label << " event " << i;
    EXPECT_EQ(expected[i].predicted_quality, actual[i].predicted_quality)
        << label << " event " << i;
    EXPECT_EQ(expected[i].cum_div_norm, actual[i].cum_div_norm)
        << label << " event " << i;
  }
}

class ServeDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    artifacts_ = new core::OfflineArtifacts(test::make_test_artifacts());
    for (std::uint64_t seed : {7u, 8u, 9u, 10u}) {
      problems_.push_back(test::make_test_problem(seed));
    }
    // Adversarial scenes ride through every determinism check below: a
    // rotating obstacle re-rasterises flags each step and a shear layer
    // exercises inflow/outflow faces — both must stay bit-identical
    // across worker counts, scheduler modes and OpenMP team sizes.
    problems_.push_back(workload::make_scene(
        workload::SceneFamily::kMovingObstacle, 4242, {16, 12}));
    problems_.push_back(workload::make_scene(
        workload::SceneFamily::kShearLayer, 4343, {16, 12}));
  }
  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
    problems_.clear();
  }

  static const core::TrainedModel& model() {
    return artifacts_->library[0];
  }

  static core::OfflineArtifacts* artifacts_;
  static std::vector<workload::InputProblem> problems_;
};

core::OfflineArtifacts* ServeDeterminism::artifacts_ = nullptr;
std::vector<workload::InputProblem> ServeDeterminism::problems_;

TEST_F(ServeDeterminism, FixedSessionsMatchSoloAcrossWorkerCounts) {
  std::vector<core::SessionResult> solo;
  for (const auto& problem : problems_) {
    solo.push_back(core::run_fixed(problem, model()));
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    serve::ServerConfig config;
    config.session_threads = threads;
    serve::SessionServer server(config);
    std::vector<serve::SessionServer::JobId> ids;
    for (const auto& problem : problems_) {
      ids.push_back(server.submit_fixed(problem, model()));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto result = server.wait(ids[i]);
      const std::string label = "fixed threads=" + std::to_string(threads) +
                                " problem=" + std::to_string(i);
      expect_bit_identical(solo[i].final_density, result.final_density,
                           label);
      EXPECT_EQ(solo[i].model_per_step, result.model_per_step) << label;
    }
  }
}

TEST_F(ServeDeterminism, AdaptiveSessionsMatchSoloAcrossWorkerCounts) {
  std::vector<core::SessionResult> solo;
  for (const auto& problem : problems_) {
    solo.push_back(core::run_adaptive(problem, *artifacts_));
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    serve::ServerConfig config;
    config.session_threads = threads;
    serve::SessionServer server(config);
    std::vector<serve::SessionServer::JobId> ids;
    for (const auto& problem : problems_) {
      ids.push_back(server.submit_adaptive(problem, *artifacts_));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto result = server.wait(ids[i]);
      const std::string label = "adaptive threads=" +
                                std::to_string(threads) +
                                " problem=" + std::to_string(i);
      expect_bit_identical(solo[i].final_density, result.final_density,
                           label);
      expect_same_events(solo[i].events, result.events, label);
      EXPECT_EQ(solo[i].model_per_step, result.model_per_step) << label;
      EXPECT_EQ(solo[i].restarted_with_pcg, result.restarted_with_pcg)
          << label;
      EXPECT_EQ(solo[i].quarantined_models, result.quarantined_models)
          << label;
    }
  }
}

TEST_F(ServeDeterminism, CoalescedAndUnbatchedAgree) {
  // The sink contract: routing inference through the coalescer must be
  // bit-identical to local inference, so batched and unbatched serving
  // configurations produce the same fields.
  serve::ServerConfig batched;
  batched.session_threads = 4;
  serve::ServerConfig unbatched = batched;
  unbatched.coalesce = false;

  serve::SessionServer a(batched);
  serve::SessionServer b(unbatched);
  std::vector<serve::SessionServer::JobId> ids_a;
  std::vector<serve::SessionServer::JobId> ids_b;
  for (const auto& problem : problems_) {
    ids_a.push_back(a.submit_adaptive(problem, *artifacts_));
    ids_b.push_back(b.submit_adaptive(problem, *artifacts_));
  }
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    const auto ra = a.wait(ids_a[i]);
    const auto rb = b.wait(ids_b[i]);
    const std::string label = "coalesce problem=" + std::to_string(i);
    expect_bit_identical(ra.final_density, rb.final_density, label);
    expect_same_events(ra.events, rb.events, label);
  }
}

TEST_F(ServeDeterminism, OmpTeamSizeDoesNotChangeResults) {
  // Direct coverage of the fixed-order reductions: div_norm and the PCG
  // dot products feed CumDivNorm and the guard, so a team-size-dependent
  // accumulation order would silently change switching decisions.
  const int prev = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto serial = core::run_adaptive(problems_[0], *artifacts_);
  omp_set_num_threads(4);
  const auto parallel4 = core::run_adaptive(problems_[0], *artifacts_);
  omp_set_num_threads(prev);

  expect_bit_identical(serial.final_density, parallel4.final_density,
                       "omp teams 1 vs 4");
  expect_same_events(serial.events, parallel4.events, "omp teams 1 vs 4");
}

/// Forwards to the wrapped solver and records the OpenMP team size of
/// the thread that runs each solve (a session worker, when served).
class TeamProbe final : public fluid::PoissonSolver {
 public:
  TeamProbe(std::unique_ptr<fluid::PoissonSolver> inner,
            std::atomic<int>* lo, std::atomic<int>* hi)
      : inner_(std::move(inner)), lo_(lo), hi_(hi) {}
  fluid::SolveStats solve(const fluid::FlagGrid& flags,
                          const fluid::GridF& rhs,
                          fluid::GridF* pressure) override {
    const int team = omp_get_max_threads();
    int cur = lo_->load();
    while (team < cur && !lo_->compare_exchange_weak(cur, team)) {
    }
    cur = hi_->load();
    while (team > cur && !hi_->compare_exchange_weak(cur, team)) {
    }
    return inner_->solve(flags, rhs, pressure);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<fluid::PoissonSolver> inner_;
  std::atomic<int>* lo_;
  std::atomic<int>* hi_;
};

TEST_F(ServeDeterminism, WorkersRunWithinTheirOmpThreadBudget) {
  // Each worker sets its own OpenMP team to hw / session_threads (at
  // least 1) so concurrent sessions do not oversubscribe the cores; the
  // kernels are team-size invariant, so served still equals solo.
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<core::SessionResult> solo;
  for (const auto& problem : problems_) {
    solo.push_back(core::run_fixed(problem, model()));
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    serve::ServerConfig config;
    config.session_threads = threads;
    serve::SessionServer server(config);
    const int budget = std::max(1, hw / static_cast<int>(threads));
    EXPECT_EQ(server.omp_threads_per_worker(), budget);
    EXPECT_EQ(obs::gauge("serve.omp_threads_per_worker").value(), budget);

    std::atomic<int> lo{1 << 30};
    std::atomic<int> hi{0};
    core::SessionConfig session;
    session.solver_decorator =
        [&](std::size_t, std::unique_ptr<fluid::PoissonSolver> inner)
        -> std::unique_ptr<fluid::PoissonSolver> {
      return std::make_unique<TeamProbe>(std::move(inner), &lo, &hi);
    };
    std::vector<serve::SessionServer::JobId> ids;
    for (const auto& problem : problems_) {
      ids.push_back(server.submit_fixed(problem, model(), session));
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto result = server.wait(ids[i]);
      expect_bit_identical(solo[i].final_density, result.final_density,
                           "budget threads=" + std::to_string(threads) +
                               " problem=" + std::to_string(i));
    }
    EXPECT_EQ(lo.load(), budget) << "threads=" << threads;
    EXPECT_EQ(hi.load(), budget) << "threads=" << threads;
  }
  obs::set_metrics_enabled(metrics_were_enabled);
}

TEST_F(ServeDeterminism, SchedulerModesAgreeBitwise) {
  // The cooperative scheduler (sessions sliced over few workers, resuming
  // on arbitrary threads) and the thread-per-session mode drive the same
  // SessionStepper, so their outputs must be bit-identical — to each
  // other and to solo runs. slice_steps=1 maximises worker migration.
  serve::ServerConfig coop;
  coop.sched = serve::ServerConfig::Sched::kCoop;
  coop.session_threads = 2;
  coop.slice_steps = 1;
  serve::ServerConfig threads = coop;
  threads.sched = serve::ServerConfig::Sched::kThreads;
  threads.session_threads = 4;

  serve::SessionServer a(coop);
  serve::SessionServer b(threads);
  std::vector<serve::SessionServer::JobId> ids_a;
  std::vector<serve::SessionServer::JobId> ids_b;
  for (const auto& problem : problems_) {
    ids_a.push_back(a.submit_adaptive(problem, *artifacts_));
    ids_b.push_back(b.submit_adaptive(problem, *artifacts_));
  }
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    const auto ra = a.wait(ids_a[i]);
    const auto rb = b.wait(ids_b[i]);
    const auto solo = core::run_adaptive(problems_[i], *artifacts_);
    const std::string label = "sched problem=" + std::to_string(i);
    expect_bit_identical(solo.final_density, ra.final_density,
                         label + " coop");
    expect_bit_identical(solo.final_density, rb.final_density,
                         label + " threads");
    expect_same_events(solo.events, ra.events, label + " coop");
    expect_same_events(solo.events, rb.events, label + " threads");
    EXPECT_EQ(ra.model_per_step, rb.model_per_step) << label;
    EXPECT_EQ(ra.quarantined_models, rb.quarantined_models) << label;
  }
}

TEST_F(ServeDeterminism, RepeatedServedRunsAreStable) {
  // Same server, same problem, run twice back-to-back: per-session state
  // isolation means the first run cannot leak anything into the second.
  serve::SessionServer server;
  const auto id1 = server.submit_adaptive(problems_[1], *artifacts_);
  const auto r1 = server.wait(id1);
  const auto id2 = server.submit_adaptive(problems_[1], *artifacts_);
  const auto r2 = server.wait(id2);
  expect_bit_identical(r1.final_density, r2.final_density, "repeat");
  expect_same_events(r1.events, r2.events, "repeat");
}

}  // namespace
}  // namespace sfn
