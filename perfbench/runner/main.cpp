// Benchmark runner: runs one named workload against the program's public
// entry points and writes the raw samples as JSON; perfbench/run.py turns
// them into metrics. Usage:
//
//   perfbench_runner run --workload W --seed N --seconds S --trace 0|1
//                        --artifacts DIR --out RAW.json
//   perfbench_runner build-artifacts DIR
//
// The program is treated as a library: only core::SessionStepper,
// core::run_fixed, workload::run_simulation, the SessionConfig seams
// (solver_decorator, inference_sink) and serve::SessionServer's
// try_submit/wait/counters are called, and the program's own obs counters
// are read. Every span is recorded here, around those calls; nothing inside
// src/ is instrumented for the benchmark.

#include "core/persistence.hpp"
#include "core/session.hpp"
#include "core/stepper.hpp"
#include "core/training.hpp"
#include "fluid/operators.hpp"
#include "fluid/pcg.hpp"
#include "modelgen/arch_spec.hpp"
#include "nn/serialize.hpp"
#include "nn/workspace.hpp"
#include "obs/metrics.hpp"
#include "serve/session_server.hpp"
#include "workload/evaluate.hpp"
#include "workload/problems.hpp"
#include "workload/scenes.hpp"

#include "loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

namespace {

using namespace sfn;
using perfbench::Outcome;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- inputs

/// Problem kinds of the mixed set, in stratification order: the classic
/// smoke plume plus every adversarial scene family.
constexpr int kKinds = 5;
const char* kind_name(int kind) {
  if (kind == 0) {
    return "plume";
  }
  return workload::to_string(workload::all_scene_families()[kind - 1]);
}

workload::InputProblem make_problem(int kind, std::uint64_t seed, int grid,
                                    int steps) {
  if (kind == 0) {
    workload::ProblemSetParams params;
    params.grid = grid;
    params.steps = steps;
    return workload::generate_problems(1, params, seed)[0];
  }
  workload::SceneParams params;
  params.grid = grid;
  params.steps = steps;
  return workload::make_scene(workload::all_scene_families()[kind - 1], seed,
                              params);
}

/// The i-th problem of the set drawn from `seed`: kinds cycle through the
/// mix (each block of five holds one of each, in a seed-shuffled order) and
/// every problem gets its own derived problem seed.
struct ProblemStream {
  std::uint64_t seed;
  int grid;
  int steps;

  [[nodiscard]] int kind(std::size_t i) const {
    perfbench::SplitMix rng(seed * 0x2545f4914f6cdd1dull + i / kKinds);
    int order[kKinds] = {0, 1, 2, 3, 4};
    for (int k = kKinds - 1; k > 0; --k) {
      std::swap(order[k], order[rng.next() % static_cast<std::uint64_t>(k + 1)]);
    }
    return order[i % kKinds];
  }
  [[nodiscard]] workload::InputProblem problem(std::size_t i) const {
    perfbench::SplitMix rng(seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    return make_problem(kind(i), rng.next(), grid, steps);
  }
};

// ------------------------------------------------------------- artifacts

struct Inputs {
  core::OfflineArtifacts artifacts;
  core::TrainedModel tompson;
  std::string hash;  ///< Combined content hash of the pinned files.
};

void save_trained_model(const core::TrainedModel& model, const fs::path& path) {
  std::ofstream out(path, std::ios::binary);
  core::save_spec(model.spec, out);
  model.net.save(out);
  nn::io::write_string(out, model.origin);
  nn::io::write_f64(out, model.train_loss);
  nn::io::write_f64(out, model.mean_seconds);
  nn::io::write_f64(out, model.mean_quality);
}

core::TrainedModel load_trained_model(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path.string());
  }
  core::TrainedModel model;
  model.spec = core::load_spec(in);
  model.net = nn::Network::load(in);
  model.origin = nn::io::read_string(in);
  model.train_loss = nn::io::read_f64(in);
  model.mean_seconds = nn::io::read_f64(in);
  model.mean_quality = nn::io::read_f64(in);
  model.net.prepack_for_inference();
  return model;
}

const char* kPinnedFiles[] = {"artifacts.bin", "tompson.model"};

/// Check every pinned file against MANIFEST, then load. Never rebuilds:
/// a missing or changed file is an error, because a rebuilt artifact set
/// can select different candidates and so measure a different program.
Inputs load_inputs(const fs::path& dir) {
  std::ifstream manifest(dir / "MANIFEST");
  if (!manifest) {
    throw std::runtime_error("missing " + (dir / "MANIFEST").string());
  }
  std::map<std::string, std::string> expected;
  std::string hex;
  std::string name;
  while (manifest >> hex >> name) {
    expected[name] = hex;
  }
  std::uint64_t combined = 0xcbf29ce484222325ull;
  for (const char* file : kPinnedFiles) {
    const std::string got =
        perfbench::hex64(perfbench::fnv1a64_file((dir / file).string()));
    if (expected[file] != got) {
      throw std::runtime_error(std::string("artifact hash mismatch for ") +
                               file + ": manifest " + expected[file] +
                               ", file " + got);
    }
    for (const char c : got) {
      combined = (combined ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
  }
  Inputs in;
  in.artifacts = core::load_artifacts(dir);
  in.tompson = load_trained_model(dir / "tompson.model");
  in.hash = perfbench::hex64(combined);
  return in;
}

/// One-off, deliberate regeneration of the pinned artifacts: the same
/// bench-scale offline configuration and Tompson baseline as the
/// paper-figure benches (bench/common.cpp), at a fixed seed. Writes the
/// files and their MANIFEST.
int build_artifacts(const fs::path& dir) {
  constexpr std::uint64_t kSeed = 42;
  core::OfflineConfig c;
  c.generation.shallow_models = 3;
  c.generation.narrow_variants_per_model = 4;
  c.generation.dropout_models = 6;
  c.search.models = 3;
  c.search.rounds = 4;
  c.training.epochs = 8;
  c.grid = 24;
  c.train_problems = 6;
  c.train_steps = 24;
  c.sample_stride = 3;
  c.eval_problems = 6;
  c.eval_steps = 16;
  c.db_problems = 24;
  c.db_steps = 16;
  c.mlp_samples_per_model = 200;
  c.mlp_training.epochs = 80;
  c.seed = kSeed;

  util::Rng rng(c.seed ^ 0xbe9c);
  workload::ProblemSetParams data_params;
  data_params.grid = c.grid;
  data_params.steps = c.train_steps;
  auto train_problems = workload::generate_problems(c.train_problems,
                                                    data_params, c.seed * 7919 + 1);
  for (std::size_t p = 0; p < train_problems.size(); p += 2) {
    train_problems[p].nx *= 2;
    train_problems[p].ny *= 2;
  }
  const auto samples = core::collect_training_data(train_problems, c.sample_stride);
  core::SurrogateTrainParams tompson_train = c.training;
  tompson_train.epochs = 5 * c.training.epochs;
  core::TrainedModel tompson = core::train_model(
      modelgen::tompson_spec(), samples, tompson_train, rng, "tompson");

  workload::ProblemSetParams eval_params = data_params;
  eval_params.steps = c.eval_steps;
  auto eval_problems = workload::generate_problems(c.eval_problems, eval_params,
                                                   c.seed * 7919 + 2);
  for (std::size_t p = 0; p < eval_problems.size(); p += 2) {
    eval_problems[p].nx *= 2;
    eval_problems[p].ny *= 2;
  }
  const auto refs = workload::reference_runs(eval_problems);
  core::measure_model(&tompson, eval_problems, refs);
  double pcg_mean = 0.0;
  for (const auto& r : refs) {
    pcg_mean += r.total_seconds / static_cast<double>(refs.size());
  }
  core::UserRequirement requirement;
  requirement.quality_loss = tompson.mean_quality;
  requirement.seconds = 0.5 * (tompson.mean_seconds + pcg_mean);
  const auto artifacts = core::run_offline_pipeline(c, requirement);

  fs::create_directories(dir);
  core::save_artifacts(artifacts, dir);
  save_trained_model(tompson, dir / "tompson.model");
  std::ofstream manifest(dir / "MANIFEST");
  for (const char* file : kPinnedFiles) {
    manifest << perfbench::hex64(perfbench::fnv1a64_file((dir / file).string()))
             << "  " << file << "\n";
  }
  std::printf("artifacts: %zu models, %zu Pareto, %zu selected, q=%.5f\n",
              artifacts.library.size(), artifacts.pareto_ids.size(),
              artifacts.selected_ids.size(), requirement.quality_loss);
  return 0;
}

/// The candidate the adaptive runtime starts on: highest MLP probability.
const core::TrainedModel& start_candidate(const core::OfflineArtifacts& a) {
  const auto cands = core::make_runtime_candidates(a);
  if (cands.empty()) {
    throw std::runtime_error("artifacts select no runtime candidates");
  }
  const auto best = std::max_element(
      cands.begin(), cands.end(),
      [](const auto& x, const auto& y) { return x.probability < y.probability; });
  return a.library[best->model_id];
}

// ---------------------------------------------------------------- tracing

/// solver_decorator wrapper: one span per PoissonSolver::solve.
class TracedSolver final : public fluid::PoissonSolver {
 public:
  TracedSolver(std::unique_ptr<fluid::PoissonSolver> inner, SpanRecorder* rec,
               const char* span, const std::uint64_t* job)
      : inner_(std::move(inner)), rec_(rec), span_(span), job_(job) {}

  fluid::SolveStats solve(const fluid::FlagGrid& flags, const fluid::GridF& rhs,
                          fluid::GridF* pressure) override {
    const SpanRecorder::Scope scope(rec_, span_, *job_);
    return inner_->solve(flags, rhs, pressure);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<fluid::PoissonSolver> inner_;
  SpanRecorder* rec_;
  const char* span_;
  const std::uint64_t* job_;
};

/// inference_sink that runs Network::forward_inference locally (what
/// NeuralProjection does without a sink) inside an nn span, and counts
/// the conv FLOPs of each forward from the layer shapes.
class TracedSink final : public core::InferenceSink {
 public:
  TracedSink(SpanRecorder* rec, const std::uint64_t* job) : rec_(rec), job_(job) {}

  void infer(const nn::Network& net, const nn::Tensor& input,
             nn::Tensor* out) override {
    {
      const SpanRecorder::Scope scope(rec_, "nn.forward", *job_);
      *out = net.forward_inference(input, ws_);
    }
    flops_ += net.flops(input.shape());
  }
  [[nodiscard]] std::uint64_t flops() const { return flops_; }

 private:
  SpanRecorder* rec_;
  const std::uint64_t* job_;
  nn::Workspace ws_;
  std::uint64_t flops_ = 0;
};

// ----------------------------------------------------------------- output

/// Minimal JSON writer for the raw-sample file.
class Json {
 public:
  Json& key(const char* k) {
    sep();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    out_ << v;
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& str(const std::string& s) {
    sep();
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ << ' ';
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  Json& nums(const char* k, const std::vector<double>& xs) {
    key(k).open('[');
    for (const double x : xs) {
      num(x);
    }
    return close(']');
  }
  [[nodiscard]] std::string text() const { return out_.str(); }

 private:
  void sep() {
    if (!fresh_) {
      out_ << ',';
    }
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// -------------------------------------------------------------- workloads

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path artifacts;
  fs::path out;
};

/// Solo workloads run one pass over a fixed suite of problems (two of each
/// kind). Whether an adaptive run restarts on PCG is decided per problem
/// and costs ~9x the surrogate run, so a seed-drawn set of ~10 problems
/// would make every per-run figure mostly a draw of how many restarts it
/// got; a fixed suite keeps run-to-run spread a property of the program.
/// The run seed orders the pass.
constexpr std::uint64_t kSuiteSeed = 2019;
constexpr std::size_t kSuiteSize = 2 * kKinds;

std::vector<std::size_t> suite_order(std::uint64_t seed) {
  std::vector<std::size_t> order(kSuiteSize);
  for (std::size_t i = 0; i < kSuiteSize; ++i) {
    order[i] = i;
  }
  perfbench::SplitMix rng(seed * 0x9e3779b97f4a7c15ull);
  for (std::size_t k = kSuiteSize - 1; k > 0; --k) {
    std::swap(order[k], order[rng.next() % (k + 1)]);
  }
  return order;
}

/// Set-up repetitions per run; run.py reports their median as setup_s.
constexpr int kSetupReps = 9;

/// Per-problem record of the solo (closed-loop) workloads.
struct ProblemRecord {
  std::size_t index = 0;  ///< Position in the suite.
  std::vector<double> step_ms;
  int kind = 0;
  int steps = 0;
  int cells = 0;
  double wall_s = 0.0;
  Outcome outcome = Outcome::kOk;
  std::string error;
  bool restarted = false;
  int steps_executed = 0;
  int switches = 0;
  int fallback_steps = 0;
  double result_s = 0.0;
  double pcg_s = 0.0;
  double solve_s = 0.0;
  std::uint64_t solve_flops = 0;
  std::uint64_t pcg_iterations = 0;
  int pcg_solves = 0;
  double qloss = -1.0;  ///< < 0: not checked.
  fluid::GridF final_density;
  workload::InputProblem problem;
};

void write_problem(Json& j, const ProblemRecord& r) {
  j.open('{');
  j.key("index").num(static_cast<std::uint64_t>(r.index));
  j.nums("step_ms", r.step_ms);
  j.key("kind").str(kind_name(r.kind));
  j.key("steps").num(static_cast<std::uint64_t>(r.steps));
  j.key("cells").num(static_cast<std::uint64_t>(r.cells));
  j.key("wall_s").num(r.wall_s);
  j.key("outcome").str(perfbench::to_string(r.outcome));
  j.key("error").str(r.error);
  j.key("restarted").boolean(r.restarted);
  j.key("steps_executed").num(static_cast<std::uint64_t>(r.steps_executed));
  j.key("switches").num(static_cast<std::uint64_t>(r.switches));
  j.key("fallback_steps").num(static_cast<std::uint64_t>(r.fallback_steps));
  j.key("result_s").num(r.result_s);
  j.key("pcg_s").num(r.pcg_s);
  j.key("solve_s").num(r.solve_s);
  j.key("solve_flops").num(r.solve_flops);
  j.key("pcg_iterations").num(r.pcg_iterations);
  j.key("pcg_solves").num(static_cast<std::uint64_t>(r.pcg_solves));
  j.key("qloss").num(r.qloss);
  j.close('}');
}

void write_spans(Json& j, const SpanRecorder& rec) {
  j.key("spans").open('[');
  for (const auto& s : rec.spans()) {
    j.open('[');
    j.num(s.id).num(s.parent).num(s.job).str(s.name).num(s.t0).num(s.t1);
    j.close(']');
  }
  j.close(']');
}

/// Cost of one recorded span on this machine, for trace.overhead_share.
double span_cost_s() {
  SpanRecorder probe(true);
  constexpr int kN = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kN; ++i) {
    const SpanRecorder::Scope scope(&probe, "probe", 0);
  }
  return since(t0) / kN;
}

/// Tracing state shared by one solo run: the recorder, the current job id
/// (read by the wrappers when they open a span) and the traced sink.
struct SoloTrace {
  explicit SoloTrace(bool enabled) : rec(enabled), sink(&rec, &job) {}
  SpanRecorder rec;
  std::uint64_t job = 0;
  TracedSink sink;
};

/// One adaptive problem, stepped from outside so every step() is timed.
void run_adaptive_problem(const core::OfflineArtifacts& artifacts,
                          SoloTrace* trace, ProblemRecord* r) {
  core::SessionConfig config;
  if (trace->rec.enabled()) {
    config.inference_sink = &trace->sink;
    config.solver_decorator = [trace](std::size_t,
                                      std::unique_ptr<fluid::PoissonSolver> s)
        -> std::unique_ptr<fluid::PoissonSolver> {
      return std::make_unique<TracedSolver>(std::move(s), &trace->rec,
                                            "nn.projection", &trace->job);
    };
  }
  core::SessionStepper stepper(r->problem, artifacts, config);
  while (!stepper.finished()) {
    const auto s0 = Clock::now();
    {
      const SpanRecorder::Scope step_span(&trace->rec, "core.step", trace->job);
      stepper.step();
    }
    r->step_ms.push_back(since(s0) * 1e3);
    ++r->steps_executed;
  }
  if (stepper.status() == core::SessionStepper::Status::kError) {
    r->outcome = Outcome::kStepError;
    try {
      stepper.rethrow_error();
    } catch (const std::exception& e) {
      r->error = e.what();
    }
    return;
  }
  core::SessionResult res = stepper.take_result();
  r->restarted = res.restarted_with_pcg;
  r->fallback_steps = res.fallback_steps;
  r->result_s = res.seconds;
  const auto pcg = res.seconds_per_model.find(core::SessionResult::kPcgModelId);
  r->pcg_s = pcg != res.seconds_per_model.end() ? pcg->second : 0.0;
  for (const auto& ev : res.events) {
    r->switches += ev.decision == runtime::Decision::kSwitchFaster ||
                   ev.decision == runtime::Decision::kSwitchAccurate;
  }
  r->final_density = std::move(res.final_density);
}

/// One exact problem through workload::run_simulation; per-step times and
/// solve statistics come from its telemetry.
void run_exact_problem(SoloTrace* trace, ProblemRecord* r) {
  fluid::PcgSolver pcg;
  fluid::PoissonSolver* solver = &pcg;
  std::unique_ptr<TracedSolver> traced;
  if (trace->rec.enabled()) {
    traced = std::make_unique<TracedSolver>(std::make_unique<fluid::PcgSolver>(),
                                            &trace->rec, "fluid.pcg.solve",
                                            &trace->job);
    solver = traced.get();
  }
  try {
    const workload::RunResult res = workload::run_simulation(r->problem, solver);
    r->steps_executed = r->problem.steps;
    r->result_s = res.total_seconds;
    r->solve_s = res.solve_seconds;
    r->solve_flops = res.solve_flops;
    r->pcg_s = res.solve_seconds;
    for (const auto& t : res.telemetry) {
      r->step_ms.push_back(t.step_seconds * 1e3);
      r->pcg_iterations += static_cast<std::uint64_t>(t.solve.iterations);
      ++r->pcg_solves;
      if (!t.solve.converged && r->outcome == Outcome::kOk) {
        r->outcome = Outcome::kNotConverged;
        r->error = "PCG solve did not converge";
      }
    }
    r->final_density = res.final_density;
    r->qloss = 0.0;  // The PCG run is its own same-build reference.
  } catch (const std::exception& e) {
    r->outcome = Outcome::kStepError;
    r->error = e.what();
  }
}

/// The adaptive_128 checks need the same PCG reference of every suite
/// problem in every run of one build, and computing them doubled the run.
/// They are kept next to the raw results under a name that holds the
/// content hash of this runner, which links the program statically, and
/// the thread settings the solver ran with, so a rebuilt program or
/// another thread count never reads them.
std::string reference_file_name() {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  return "pcg_refs_" + perfbench::hex64(perfbench::fnv1a64_file("/proc/self/exe")) +
         "_hw" + std::to_string(std::thread::hardware_concurrency()) + "_omp" +
         (omp != nullptr ? omp : "default") + ".bin";
}

/// Reference densities by suite index; empty when the file is missing or
/// malformed (the caller then computes them).
std::map<std::size_t, fluid::GridF> load_references(const fs::path& path) {
  std::map<std::size_t, fluid::GridF> refs;
  std::ifstream in(path, std::ios::binary);
  std::uint64_t count = 0;
  if (!in.read(reinterpret_cast<char*>(&count), sizeof(count)) ||
      count > kSuiteSize) {
    return {};
  }
  for (std::uint64_t k = 0; k < count; ++k) {
    std::uint64_t index = 0;
    std::int32_t dims[2] = {0, 0};
    if (!in.read(reinterpret_cast<char*>(&index), sizeof(index)) ||
        !in.read(reinterpret_cast<char*>(dims), sizeof(dims)) ||
        index >= kSuiteSize || dims[0] <= 0 || dims[1] <= 0 ||
        dims[0] > 4096 || dims[1] > 4096) {
      return {};
    }
    fluid::GridF grid(dims[0], dims[1]);
    const auto bytes = static_cast<std::streamsize>(grid.data().size() * sizeof(float));
    if (!in.read(reinterpret_cast<char*>(grid.data().data()), bytes)) {
      return {};
    }
    refs[index] = std::move(grid);
  }
  return refs;
}

/// Write to a temporary name, then rename: a reader never sees half a file.
void save_references(const fs::path& path,
                     const std::map<std::size_t, fluid::GridF>& refs) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    const std::uint64_t count = refs.size();
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const auto& [index, grid] : refs) {
      const std::uint64_t i = index;
      const std::int32_t dims[2] = {grid.nx(), grid.ny()};
      out.write(reinterpret_cast<const char*>(&i), sizeof(i));
      out.write(reinterpret_cast<const char*>(dims), sizeof(dims));
      out.write(reinterpret_cast<const char*>(grid.data().data()),
                static_cast<std::streamsize>(grid.data().size() * sizeof(float)));
    }
    if (!out) {
      throw std::runtime_error("cannot write " + tmp.string());
    }
  }
  fs::rename(tmp, path);
}

/// adaptive_128 / exact_128: one client, problems back to back.
int run_solo(const RunArgs& args, bool adaptive) {
  constexpr int kGrid = 128;
  constexpr int kSteps = 48;
  SoloTrace trace(args.trace);

  // Set-up: load + hash-check the artifacts, then one untimed warm-up
  // problem of fixed content and cost (a fixed-surrogate run for
  // adaptive_128, a PCG run for exact_128).
  std::vector<double> setup_s;
  Inputs inputs;
  const workload::InputProblem warm = make_problem(1, 7, kGrid, 12);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    inputs = load_inputs(args.artifacts);
    if (adaptive) {
      (void)core::run_fixed(warm, start_candidate(inputs.artifacts));
    } else {
      fluid::PcgSolver pcg;
      (void)workload::run_simulation(warm, &pcg);
    }
    setup_s.push_back(since(t0));
  }

  // One pass over the fixed suite in seed order. The amount of work is
  // fixed, so --seconds does not change it (a pass takes 15-27 s on a
  // 4-vCPU VM).
  const ProblemStream suite{kSuiteSeed, kGrid, kSteps};
  std::vector<ProblemRecord> records;
  // The restart and fallback PCG solvers live inside the stepper, out of
  // reach of solver_decorator; the program's own PCG counters see them.
  obs::Counter& pcg_solves = obs::counter("pcg.solves");
  obs::Counter& pcg_iterations = obs::counter("pcg.iterations");
  const std::uint64_t solves0 = pcg_solves.value();
  const std::uint64_t iterations0 = pcg_iterations.value();
  for (const std::size_t index : suite_order(args.seed)) {
    ProblemRecord r;
    r.index = index;
    r.problem = suite.problem(index);
    r.kind = suite.kind(index);
    r.steps = r.problem.steps;
    r.cells = r.problem.nx * r.problem.ny;
    trace.job = records.size() + 1;
    const auto t0 = Clock::now();
    {
      const SpanRecorder::Scope span(&trace.rec, "workload.problem", trace.job);
      if (adaptive) {
        run_adaptive_problem(inputs.artifacts, &trace, &r);
      } else {
        run_exact_problem(&trace, &r);
      }
    }
    r.wall_s = since(t0);
    records.push_back(std::move(r));
  }
  const std::uint64_t counted_solves = pcg_solves.value() - solves0;
  const std::uint64_t counted_iterations = pcg_iterations.value() - iterations0;

  // Output checks, outside the timed window: Qloss of every adaptive
  // result against a same-build PCG reference. A restarted run replays the
  // whole problem on PCG, so its density must also equal the reference bit
  // for bit; every restarted run is checked that way.
  std::uint64_t bit_checked = 0;
  std::uint64_t bit_mismatch = 0;
  std::uint64_t refs_cached = 0;
  if (adaptive) {
    const fs::path ref_file = args.out.parent_path() / reference_file_name();
    std::map<std::size_t, fluid::GridF> refs = load_references(ref_file);
    refs_cached = refs.size();
    for (auto& r : records) {
      if (r.outcome != Outcome::kOk) {
        continue;
      }
      auto ref = refs.find(r.index);
      if (ref == refs.end()) {
        fluid::PcgSolver pcg;
        ref = refs.emplace(r.index, workload::run_simulation(r.problem, &pcg)
                                        .final_density)
                  .first;
      }
      const fluid::GridF& ref_density = ref->second;
      r.qloss = fluid::quality_loss(ref_density, r.final_density);
      if (r.restarted) {
        ++bit_checked;
        if (std::memcmp(ref_density.data().data(),
                        r.final_density.data().data(),
                        r.final_density.data().size() * sizeof(float)) != 0) {
          ++bit_mismatch;
          r.outcome = Outcome::kMismatch;
          r.error = "restarted run differs from the PCG reference";
        }
      }
    }
    if (refs.size() != refs_cached) {
      save_references(ref_file, refs);
    }
  }

  Json j;
  j.open('{');
  j.key("workload").str(args.workload);
  j.key("seed").num(args.seed);
  j.key("trace").boolean(args.trace);
  j.key("artifact_hash").str(inputs.hash);
  j.key("hardware_threads").num(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.key("quality_requirement").num(inputs.artifacts.requirement.quality_loss);
  j.key("selected_models").num(static_cast<std::uint64_t>(inputs.artifacts.selected_ids.size()));
  j.nums("setup_s", setup_s);
  j.key("problems").open('[');
  for (const auto& r : records) {
    write_problem(j, r);
  }
  j.close(']');
  j.key("bit_checked").num(bit_checked);
  j.key("bit_mismatch").num(bit_mismatch);
  j.key("refs_cached").num(refs_cached);
  j.key("nn_flops").num(trace.sink.flops());
  j.key("pcg_counter_solves").num(counted_solves);
  j.key("pcg_counter_iterations").num(counted_iterations);
  if (args.trace) {
    j.key("span_cost_s").num(span_cost_s());
    write_spans(j, trace.rec);
  }
  j.close('}');
  std::ofstream(args.out) << j.text() << "\n";
  return 0;
}

/// serve_open_64: Poisson arrivals into one SessionServer.
int run_serve(const RunArgs& args) {
  constexpr int kGrid = 64;
  constexpr int kSteps = 48;
  // Offered load: about a third of the ~10-13 jobs/s a 4-core machine
  // serves at 64^2 (capacity probe at the commit this benchmark was
  // defined on).
  constexpr double kRatePerS = 4.0;
  // Traffic mix. These are assumptions, not measurements: there is no
  // production trace to take a repeat share, hot-set size, cache size or
  // model split from. They exercise the result cache and both weight sets;
  // the headline latency metrics are taken over fresh jobs only, so the
  // repeat share does not set them.
  constexpr double kRepeatShare = 0.25;   ///< Resubmitted identical scenes.
  constexpr std::size_t kHotScenes = 16;  ///< Repeats draw from the last 16.
  constexpr std::size_t kCacheEntries = 64;
  constexpr std::size_t kBitSamples = 8;  ///< Jobs replayed solo and compared.

  SpanRecorder rec(args.trace);
  const auto make_config = [] {
    serve::ServerConfig config = serve::ServerConfig::from_env();
    config.session_threads = std::max(1u, std::thread::hardware_concurrency());
    config.result_cache_entries = kCacheEntries;
    return config;
  };

  // Set-up: load + hash-check, start the server, then one warm-up job per
  // session worker, submitted together. A single warm-up job runs on one
  // worker and its time swung ~30% from process to process; a full round
  // of workers is steadier. Earlier repetitions shut their server down;
  // the last one serves the window.
  std::vector<double> setup_s;
  Inputs inputs;
  std::unique_ptr<serve::SessionServer> server;
  const workload::InputProblem warm = make_problem(1, 7, kGrid, kSteps);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const auto t0 = Clock::now();
    inputs = load_inputs(args.artifacts);
    server = std::make_unique<serve::SessionServer>(make_config());
    std::vector<serve::SessionServer::JobId> warm_ids;
    for (std::size_t w = 0; w < server->config().session_threads; ++w) {
      warm_ids.push_back(server->submit_fixed(
          warm, inputs.tompson, {}, {.tenant = "", .cacheable = false}));
    }
    for (const auto id : warm_ids) {
      (void)server->wait(id);
    }
    setup_s.push_back(since(t0));
  }
  const core::TrainedModel* models[2] = {&start_candidate(inputs.artifacts),
                                         &inputs.tompson};

  struct Job {
    double due = 0.0;
    double sent = 0.0;
    double submit_us = 0.0;
    double done = 0.0;
    int model = 0;
    bool repeat = false;
    bool sampled = false;
    std::optional<serve::SessionServer::JobId> id;
    Outcome outcome = Outcome::kOk;
    std::string error;
    double result_s = 0.0;
    fluid::GridF density;
    workload::InputProblem problem;
  };
  // One window of --seconds with exactly rate * seconds arrivals.
  const std::vector<double> due = perfbench::poisson_schedule(
      args.seed, static_cast<std::size_t>(std::llround(kRatePerS * args.seconds)),
      args.seconds);
  std::vector<Job> jobs(due.size());
  perfbench::SplitMix mix(args.seed * 0x9e3779b97f4a7c15ull + 17);
  // Exactly round(kRepeatShare * offered) repeats, at seed-chosen
  // positions after the first job.
  std::vector<bool> is_repeat(jobs.size(), false);
  const auto repeats = static_cast<std::size_t>(
      std::llround(kRepeatShare * static_cast<double>(jobs.size())));
  for (std::size_t placed = 0; placed < repeats && jobs.size() > 1;) {
    const std::size_t pos = 1 + mix.next() % (jobs.size() - 1);
    if (!is_repeat[pos]) {
      is_repeat[pos] = true;
      ++placed;
    }
  }
  // Fresh scenes are a fixed set of distinct problems (as for the solo
  // suite) served in a seed-shuffled order. Each scene has a fixed weight
  // set (even scenes the start candidate, odd ones Tompson), so every run
  // serves the same (scene, model) pairs and the seed moves only arrival
  // timing, order and repeats.
  const ProblemStream scenes{kSuiteSeed, kGrid, kSteps};
  const std::size_t fresh_total = jobs.size() - repeats;
  std::vector<std::size_t> scene_order(fresh_total);
  for (std::size_t k = 0; k < fresh_total; ++k) {
    scene_order[k] = k;
  }
  for (std::size_t k = fresh_total; k > 1; --k) {
    std::swap(scene_order[k - 1], scene_order[mix.next() % k]);
  }
  std::vector<std::size_t> fresh;  // Indices of non-repeat jobs.
  std::size_t fresh_count = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].due = due[i];
    if (is_repeat[i]) {
      const std::size_t window = std::min(fresh.size(), kHotScenes);
      const std::size_t src = fresh[fresh.size() - 1 - mix.next() % window];
      jobs[i].problem = jobs[src].problem;
      jobs[i].model = jobs[src].model;
      jobs[i].repeat = true;
    } else {
      jobs[i].problem = scenes.problem(scene_order[fresh_count]);
      jobs[i].model = static_cast<int>(scene_order[fresh_count] % 2);
      jobs[i].sampled = fresh_count % 3 == 0 && fresh_count / 3 < kBitSamples;
      ++fresh_count;
      fresh.push_back(i);
    }
  }

  const auto batches0 = server->coalescer().batches_dispatched();
  const auto batched0 = server->coalescer().requests_batched();
  const auto inline0 = server->coalescer().requests_inline();
  const auto hits0 = server->cache_hits();
  const auto degraded0 = server->jobs_degraded();
  const auto dispatch0 = obs::histogram("serve.dispatch_latency").snapshot();

  // Open loop: the generator only submits; every accepted job gets its own
  // waiter thread, so no wait() sits behind another job's (in-order
  // waiting would add head-of-line delay to any job that finishes early).
  perfbench::Lateness lateness;
  std::size_t active_max = 0;
  std::vector<std::thread> waiters;
  waiters.reserve(jobs.size());
  struct JoinAll {
    std::vector<std::thread>& threads;
    ~JoinAll() {
      for (auto& t : threads) {
        if (t.joinable()) {
          t.join();
        }
      }
    }
  };
  const auto start = Clock::now();
  {
    const JoinAll join_all{waiters};
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Job& jb = jobs[i];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(jb.due)));
      jb.sent = since(start);
      lateness.record(jb.due, jb.sent);
      active_max = std::max(active_max, server->sessions_active());
      {
        const SpanRecorder::Scope span(&rec, "loadgen.submit", i + 1);
        jb.id = server->try_submit_fixed(jb.problem, *models[jb.model]);
      }
      jb.submit_us = (since(start) - jb.sent) * 1e6;
      if (!jb.id) {
        jb.outcome = Outcome::kRejected;
        jb.done = jb.sent;
        continue;
      }
      waiters.emplace_back([&, i] {
        Job& w = jobs[i];
        try {
          const SpanRecorder::Scope span(&rec, "serve.wait", i + 1);
          core::SessionResult res = server->wait(*w.id);
          w.result_s = res.seconds;
          if (w.sampled) {
            w.density = std::move(res.final_density);
          }
        } catch (const std::exception& e) {
          w.outcome = Outcome::kJobError;
          w.error = e.what();
        } catch (...) {
          w.outcome = Outcome::kJobError;
          w.error = "non-standard exception";
        }
        w.done = since(start);
      });
    }
  }  // join_all: every waiter has returned.
  const double elapsed_s = since(start);

  const auto dispatch1 = obs::histogram("serve.dispatch_latency").snapshot();
  const auto batches = server->coalescer().batches_dispatched() - batches0;
  const auto batched = server->coalescer().requests_batched() - batched0;
  const auto inlined = server->coalescer().requests_inline() - inline0;
  const auto hits = server->cache_hits() - hits0;
  const auto degraded = server->jobs_degraded() - degraded0;
  server->shutdown();

  // Output checks: sampled served jobs must equal a solo run_fixed of the
  // same problem and weights bit for bit (the serving contract), and give
  // the Qloss sample against a same-build PCG reference.
  std::uint64_t bit_checked = 0;
  std::uint64_t bit_mismatch = 0;
  std::vector<double> qloss;
  std::uint64_t nn_flops = 0;
  for (auto& jb : jobs) {
    if (!jb.sampled || jb.outcome != Outcome::kOk) {
      continue;
    }
    const auto solo = core::run_fixed(jb.problem, *models[jb.model]);
    ++bit_checked;
    if (solo.final_density.data().size() != jb.density.data().size() ||
        std::memcmp(solo.final_density.data().data(), jb.density.data().data(),
                    jb.density.data().size() * sizeof(float)) != 0) {
      ++bit_mismatch;
      jb.outcome = Outcome::kMismatch;
      jb.error = "served result differs from solo run_fixed";
    }
    fluid::PcgSolver pcg;
    const auto ref = workload::run_simulation(jb.problem, &pcg);
    qloss.push_back(fluid::quality_loss(ref.final_density, jb.density));
  }
  for (const auto* m : models) {
    nn_flops += m->net.flops(nn::Shape{2, kGrid, kGrid});
  }

  Json j;
  j.open('{');
  j.key("workload").str(args.workload);
  j.key("seed").num(args.seed);
  j.key("trace").boolean(args.trace);
  j.key("artifact_hash").str(inputs.hash);
  j.key("hardware_threads").num(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.key("quality_requirement").num(inputs.artifacts.requirement.quality_loss);
  j.key("selected_models").num(static_cast<std::uint64_t>(inputs.artifacts.selected_ids.size()));
  j.key("rate_per_s").num(kRatePerS);
  j.key("repeat_share").num(kRepeatShare);
  j.key("cache_entries").num(static_cast<std::uint64_t>(kCacheEntries));
  j.key("session_threads").num(static_cast<std::uint64_t>(server->config().session_threads));
  j.nums("setup_s", setup_s);
  j.key("elapsed_s").num(elapsed_s);
  j.key("cells").num(static_cast<std::uint64_t>(kGrid * kGrid));
  j.key("steps").num(static_cast<std::uint64_t>(kSteps));
  j.key("jobs").open('[');
  for (const auto& jb : jobs) {
    j.open('{');
    j.key("due").num(jb.due);
    j.key("sent").num(jb.sent);
    j.key("done").num(jb.done);
    j.key("submit_us").num(jb.submit_us);
    j.key("model").num(static_cast<std::uint64_t>(jb.model));
    j.key("repeat").boolean(jb.repeat);
    j.key("outcome").str(perfbench::to_string(jb.outcome));
    j.key("error").str(jb.error);
    j.key("result_s").num(jb.result_s);
    j.close('}');
  }
  j.close(']');
  j.key("lateness_ms_max").num(lateness.max_ms);
  j.key("active_sessions_max").num(static_cast<std::uint64_t>(active_max));
  j.key("batches").num(batches);
  j.key("requests_batched").num(batched);
  j.key("requests_inline").num(inlined);
  j.key("cache_hits").num(hits);
  j.key("degraded").num(degraded);
  j.key("dispatch_count").num(dispatch1.count - dispatch0.count);
  j.key("dispatch_s").num(dispatch1.sum - dispatch0.sum);
  j.key("nn_flops_per_request_mean").num(nn_flops / 2);
  j.nums("qloss", qloss);
  j.key("bit_checked").num(bit_checked);
  j.key("bit_mismatch").num(bit_mismatch);
  if (args.trace) {
    j.key("span_cost_s").num(span_cost_s());
    write_spans(j, rec);
  }
  j.close('}');
  std::ofstream(args.out) << j.text() << "\n";
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner run --workload W --seed N --seconds S "
               "--trace 0|1 --artifacts DIR --out FILE\n"
               "       perfbench_runner build-artifacts DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 3 && std::strcmp(argv[1], "build-artifacts") == 0) {
      return build_artifacts(argv[2]);
    }
    if (argc < 2 || std::strcmp(argv[1], "run") != 0) {
      return usage();
    }
    RunArgs args;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string k = argv[i];
      const std::string v = argv[i + 1];
      if (k == "--workload") {
        args.workload = v;
      } else if (k == "--seed") {
        args.seed = std::stoull(v);
      } else if (k == "--seconds") {
        args.seconds = std::stod(v);
      } else if (k == "--trace") {
        args.trace = v == "1";
      } else if (k == "--artifacts") {
        args.artifacts = v;
      } else if (k == "--out") {
        args.out = v;
      } else {
        return usage();
      }
    }
    if (args.out.empty() || args.artifacts.empty() || !(args.seconds > 0.0)) {
      return usage();
    }
    if (args.workload == "adaptive_128") {
      return run_solo(args, true);
    }
    if (args.workload == "exact_128") {
      return run_solo(args, false);
    }
    if (args.workload == "serve_open_64") {
      return run_serve(args);
    }
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
