// Tests for the benchmark's own C++ helpers (runner/loadgen.hpp): the
// seeded arrival schedule, lateness accounting, outcome names, the artifact
// hash and the span recorder. Build and run:
//   cmake --build .bench_build/runner --target perfbench_helper_tests
//   .bench_build/runner/perfbench_helper_tests

#include "loadgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameSchedule) {
  EXPECT_EQ(poisson_schedule(7, 40, 10.0), poisson_schedule(7, 40, 10.0));
  EXPECT_NE(poisson_schedule(7, 40, 10.0), poisson_schedule(8, 40, 10.0));
}

TEST(PoissonSchedule, ExactCountSortedInsideWindow) {
  const auto due = poisson_schedule(3, 40, 10.0);
  ASSERT_EQ(due.size(), 40u);
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GE(due.front(), 0.0);
  EXPECT_LT(due.back(), 10.0);
  EXPECT_TRUE(poisson_schedule(3, 0, 10.0).empty());
  EXPECT_THROW(poisson_schedule(3, 4, 0.0), std::invalid_argument);
}

TEST(PoissonSchedule, GapsAreExponentialOnAverage) {
  // Conditioned on n arrivals in a window W, gaps average W / (n + 1) and
  // their coefficient of variation tends to 1, as for a Poisson process.
  const auto due = poisson_schedule(11, 20000, 1000.0);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < due.size(); ++i) {
    gaps.push_back(due[i] - due[i - 1]);
  }
  const double mean =
      std::accumulate(gaps.begin(), gaps.end(), 0.0) / static_cast<double>(gaps.size());
  double var = 0.0;
  for (const double g : gaps) {
    var += (g - mean) * (g - mean) / static_cast<double>(gaps.size());
  }
  EXPECT_NEAR(mean, 0.05, 0.002);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(Lateness, ClampsEarlyAndTracksMax) {
  Lateness l;
  l.record(1.0, 0.999);  // early wake-up: 0 ms late
  l.record(2.0, 2.004);  // 4 ms late
  l.record(3.0, 3.001);  // 1 ms late
  EXPECT_EQ(l.samples, 3u);
  EXPECT_NEAR(l.max_ms, 4.0, 1e-9);
  Lateness early;
  early.record(1.0, 0.5);
  EXPECT_EQ(early.max_ms, 0.0);
}

TEST(Outcome, Names) {
  EXPECT_STREQ(to_string(Outcome::kOk), "ok");
  EXPECT_STREQ(to_string(Outcome::kRejected), "rejected");
  EXPECT_STREQ(to_string(Outcome::kNotConverged), "not_converged");
  EXPECT_STREQ(to_string(Outcome::kMismatch), "mismatch");
}

TEST(Fnv1a, KnownVectorAndHex) {
  const auto path = std::filesystem::temp_directory_path() / "perfbench_fnv_test";
  std::ofstream(path, std::ios::binary) << "a";
  EXPECT_EQ(fnv1a64_file(path.string()), 0xaf63dc4c8601ec8cull);
  std::filesystem::remove(path);
  EXPECT_EQ(hex64(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
  EXPECT_THROW(fnv1a64_file("/nonexistent/perfbench"), std::runtime_error);
}

TEST(SpanRecorder, NestsSpansAndSharesJobIds) {
  SpanRecorder rec(true);
  {
    const SpanRecorder::Scope outer(&rec, "outer", 7);
    const SpanRecorder::Scope inner(&rec, "inner", 7);
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& inner = spans[0];  // closes first
  const Span& outer = spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.job, outer.job);
  EXPECT_LE(outer.t0, inner.t0);
  EXPECT_LE(inner.t1, outer.t1);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec(false);
  { const SpanRecorder::Scope s(&rec, "x", 1); }
  { const SpanRecorder::Scope s(nullptr, "x", 1); }
  EXPECT_TRUE(rec.spans().empty());
}

}  // namespace
}  // namespace perfbench
