#include "serve/session_server.hpp"

#include "obs/eventlog.hpp"
#include "obs/exporter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/scene_hash.hpp"
#include "util/config.hpp"

#include <omp.h>

#include <algorithm>
#include <thread>
#include <utility>

namespace sfn::serve {

namespace {

obs::Gauge& sessions_active_gauge() {
  static obs::Gauge& g = obs::gauge("serve.sessions_active");
  return g;
}
obs::Counter& jobs_counter() {
  static obs::Counter& c = obs::counter("serve.jobs_completed");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter& c = obs::counter("serve.jobs_rejected");
  return c;
}
obs::Counter& failed_counter() {
  static obs::Counter& c = obs::counter("serve.jobs_failed");
  return c;
}
obs::Counter& cache_hit_counter() {
  static obs::Counter& c = obs::counter("serve.cache_hits");
  return c;
}
obs::Counter& degraded_counter() {
  static obs::Counter& c = obs::counter("serve.jobs_degraded");
  return c;
}
obs::Counter& tenant_rejected_counter() {
  static obs::Counter& c = obs::counter("serve.tenant_rejections");
  return c;
}
obs::Histogram& queue_wait_hist() {
  static obs::Histogram& h = obs::histogram("serve.queue_wait");
  return h;
}
/// Wall time of one cooperative scheduling slice (SLO: how long a session
/// occupies a worker before yielding).
obs::Histogram& sched_slice_hist() {
  static obs::Histogram& h = obs::histogram("serve.sched_slice");
  return h;
}
/// Latency between a session becoming runnable (slice re-queued) and a
/// worker picking it up (SLO: scheduler fairness / worker saturation).
obs::Histogram& ready_wait_hist() {
  static obs::Histogram& h = obs::histogram("serve.ready_wait");
  return h;
}
obs::Histogram& job_duration_hist(bool adaptive) {
  // Per-mode label set, bounded cardinality (two modes, not per-job ids).
  static obs::Histogram& adaptive_h =
      obs::histogram_labeled("serve.job_duration", "mode", "adaptive");
  static obs::Histogram& fixed_h =
      obs::histogram_labeled("serve.job_duration", "mode", "fixed");
  return adaptive ? adaptive_h : fixed_h;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

const char* kind_name(bool adaptive) {
  return adaptive ? "adaptive" : "fixed";
}

int worker_team_size(std::size_t session_threads) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(
      std::max<std::size_t>(1, hw / std::max<std::size_t>(1, session_threads)));
}

}  // namespace

ServerConfig ServerConfig::from_env() {
  ServerConfig config;
  const long long queue = util::env_int(
      "SFN_SERVE_QUEUE", static_cast<long long>(config.queue_capacity));
  if (queue < 1) {
    // A zero-capacity queue deadlocks kBlock on first submit and makes
    // kReject always throw; warn and serve with the minimum viable queue.
    obs::Event("config_clamped")
        .field("knob", "SFN_SERVE_QUEUE")
        .field("value", queue)
        .field("clamped_to", std::uint64_t{1});
  }
  config.queue_capacity =
      static_cast<std::size_t>(std::max<long long>(1, queue));
  config.sched =
      util::env_choice("SFN_SCHED", {"coop", "threads"}, "coop") == "threads"
          ? Sched::kThreads
          : Sched::kCoop;
  const long long slice = util::env_int(
      "SFN_SCHED_SLICE", static_cast<long long>(config.slice_steps));
  if (slice < 1) {
    obs::Event("config_clamped")
        .field("knob", "SFN_SCHED_SLICE")
        .field("value", slice)
        .field("clamped_to", std::uint64_t{1});
  }
  config.slice_steps = static_cast<int>(std::max<long long>(1, slice));
  config.tenant_budget = static_cast<std::size_t>(std::max<long long>(
      0, util::env_int("SFN_TENANT_BUDGET",
                       static_cast<long long>(config.tenant_budget))));
  config.result_cache_entries = static_cast<std::size_t>(std::max<long long>(
      0, util::env_int("SFN_RESULT_CACHE",
                       static_cast<long long>(config.result_cache_entries))));
  config.batch = CoalescerConfig::from_env();
  return config;
}

SessionServer::SessionServer(ServerConfig config)
    : config_(config),
      omp_threads_per_worker_(worker_team_size(config.session_threads)),
      coalescer_(config.batch),
      // Each worker's own OpenMP team: every session kernel runs a team
      // on its worker thread, so session_threads teams of hw threads
      // would oversubscribe the machine session_threads times over.
      pool_(std::max<std::size_t>(1, config.session_threads),
            [n = omp_threads_per_worker_] { omp_set_num_threads(n); }) {
  static obs::Gauge& team_gauge = obs::gauge("serve.omp_threads_per_worker");
  team_gauge.set(static_cast<double>(omp_threads_per_worker_));
  // Constructor-side validation mirrors from_env: a directly-constructed
  // config with a zero queue (or non-positive slice) must not be able to
  // deadlock submit either. Clamp with a warning event, don't throw — a
  // serving process that comes up degraded beats one that won't start.
  if (config_.queue_capacity < 1) {
    obs::Event("config_clamped")
        .field("knob", "queue_capacity")
        .field("value", std::uint64_t{0})
        .field("clamped_to", std::uint64_t{1});
    config_.queue_capacity = 1;
  }
  if (config_.slice_steps < 1) {
    obs::Event("config_clamped")
        .field("knob", "slice_steps")
        .field("value", static_cast<std::int64_t>(config_.slice_steps))
        .field("clamped_to", std::uint64_t{1});
    config_.slice_steps = 1;
  }
  if (config_.max_active_sessions < 1) {
    config_.max_active_sessions = 1;
  }
  // The serving tier is the operational entry point: bring up the
  // observability sinks configured in the environment (no-ops when the
  // SFN_OBS_HTTP / SFN_EVENTLOG / SFN_FLIGHT variables are unset).
  obs::eventlog_init_from_env();
  obs::exporter_init_from_env();
  obs::flight_init_from_env();
}

SessionServer::~SessionServer() { shutdown(); }

SessionServer::JobId SessionServer::enqueue(Job job, bool may_block) {
  JobId id = 0;
  bool activate_now = false;
  const bool coop = config_.sched == ServerConfig::Sched::kCoop;
  {
    const util::MutexLock lock(mutex_);
    if (!accepting_) {
      throw ServerStoppedError();
    }

    // Admission ladder step 1: per-tenant budget. A tenant at its budget
    // is rejected before any queue slot is considered, so one tenant
    // cannot occupy the whole queue.
    if (config_.tenant_budget > 0) {
      const auto it = tenant_inflight_.find(job.tenant);
      const std::size_t inflight =
          it == tenant_inflight_.end() ? 0 : it->second;
      if (inflight >= config_.tenant_budget) {
        tenant_rejected_counter().add();
        obs::Event("tenant_rejected")
            .field("tenant", job.tenant.empty() ? "<default>" : job.tenant)
            .field("budget",
                   static_cast<std::uint64_t>(config_.tenant_budget));
        throw TenantBudgetError(job.tenant.empty() ? "<default>" : job.tenant,
                                config_.tenant_budget);
      }
    }

    // Step 2: scene-hash result cache. An identical resubmission (same
    // problem/model/config bits) is answered from the cache: the job is
    // born done, consumes no queue slot, no worker, no tenant budget.
    const bool cache_eligible = config_.result_cache_entries > 0 &&
                                job.cacheable && !job.session.solver_decorator;
    if (cache_eligible) {
      if (auto hit = cache_lookup(job.scene_hash)) {
        id = next_id_++;
        auto record = std::make_unique<Job>(std::move(job));
        record->result = std::move(*hit);
        record->done = true;
        jobs_.emplace(id, std::move(record));
        ++completed_;
        ++cache_hits_;
        cache_hit_counter().add();
        jobs_counter().add();
        obs::Event("cache_hit").field("job", id);
        return id;
      }
    }

    // Step 3: degraded-mode shedding. Under backlog pressure an adaptive
    // job is pinned to the cheapest quarantine-surviving candidate and
    // runs as a fixed session — cheaper, still served — instead of
    // escalating to a rejection.
    if (config_.degraded_shedding && job.kind == Kind::kAdaptive &&
        static_cast<double>(queued_) >=
            config_.shed_watermark *
                static_cast<double>(config_.queue_capacity)) {
      job.degraded = true;
      job.degraded_model = pick_degraded_model(*job.artifacts);
      ++degraded_jobs_;
      degraded_counter().add();
      obs::Event("job_degraded")
          .field("model",
                 static_cast<std::uint64_t>(
                     job.degraded_model->records.model_id))
          .field("queued", static_cast<std::uint64_t>(queued_));
    }

    // Step 4: queue capacity (block or reject per policy). A submitter
    // blocked here is woken by shutdown() and leaves with
    // ServerStoppedError — never a deadlock (liveness regression test:
    // BlockedSubmitWokenByShutdown).
    if (queued_ >= config_.queue_capacity) {
      if (!may_block || config_.overflow == ServerConfig::Overflow::kReject) {
        rejected_counter().add();
        obs::Event("session_rejected")
            .field("mode", kind_name(job.kind == Kind::kAdaptive))
            .field("queue_capacity",
                   static_cast<std::uint64_t>(config_.queue_capacity));
        throw QueueFullError(config_.queue_capacity);
      }
      while (accepting_ && queued_ >= config_.queue_capacity) {
        space_cv_.wait(mutex_);
      }
      if (!accepting_) {
        throw ServerStoppedError();
      }
    }

    id = next_id_++;
    ++queued_;
    queue_high_water_ = std::max(queue_high_water_, queued_);
    ++tenant_inflight_[job.tenant];
    job.submitted = std::chrono::steady_clock::now();
    Job* record =
        jobs_.emplace(id, std::make_unique<Job>(std::move(job)))
            .first->second.get();
    if (coop) {
      if (running_ < config_.max_active_sessions) {
        --queued_;
        ++running_;
        sessions_active_gauge().set(static_cast<double>(running_));
        record->slice_enqueued = record->submitted;
        activate_now = true;
      } else {
        pending_.push_back(id);
      }
    }
  }
  if (coop) {
    if (activate_now) {
      space_cv_.notify_one();
      pool_.submit([this, id] { run_coop_slice(id); });
    }
  } else {
    pool_.submit([this, id] { run_job(id); });
  }
  return id;
}

SessionServer::JobId SessionServer::submit_fixed(
    const workload::InputProblem& problem, const core::TrainedModel& model,
    core::SessionConfig session, JobOptions options) {
  Job job;
  job.kind = Kind::kFixed;
  job.problem = problem;
  job.model = &model;
  job.scene_hash = scene_hash_fixed(problem, model, session);
  job.session = std::move(session);
  job.tenant = std::move(options.tenant);
  job.cacheable = options.cacheable;
  return enqueue(std::move(job), /*may_block=*/true);
}

SessionServer::JobId SessionServer::submit_adaptive(
    const workload::InputProblem& problem,
    const core::OfflineArtifacts& artifacts, core::SessionConfig session,
    JobOptions options) {
  Job job;
  job.kind = Kind::kAdaptive;
  job.problem = problem;
  job.artifacts = &artifacts;
  job.scene_hash = scene_hash_adaptive(problem, artifacts, session);
  job.session = std::move(session);
  job.tenant = std::move(options.tenant);
  job.cacheable = options.cacheable;
  return enqueue(std::move(job), /*may_block=*/true);
}

std::optional<SessionServer::JobId> SessionServer::try_submit_fixed(
    const workload::InputProblem& problem, const core::TrainedModel& model,
    core::SessionConfig session, JobOptions options) {
  try {
    Job job;
    job.kind = Kind::kFixed;
    job.problem = problem;
    job.model = &model;
    job.scene_hash = scene_hash_fixed(problem, model, session);
    job.session = std::move(session);
    job.tenant = std::move(options.tenant);
    job.cacheable = options.cacheable;
    return enqueue(std::move(job), /*may_block=*/false);
  } catch (const QueueFullError&) {
    return std::nullopt;
  }
}

std::optional<SessionServer::JobId> SessionServer::try_submit_adaptive(
    const workload::InputProblem& problem,
    const core::OfflineArtifacts& artifacts, core::SessionConfig session,
    JobOptions options) {
  try {
    Job job;
    job.kind = Kind::kAdaptive;
    job.problem = problem;
    job.artifacts = &artifacts;
    job.scene_hash = scene_hash_adaptive(problem, artifacts, session);
    job.session = std::move(session);
    job.tenant = std::move(options.tenant);
    job.cacheable = options.cacheable;
    return enqueue(std::move(job), /*may_block=*/false);
  } catch (const QueueFullError&) {
    return std::nullopt;
  }
}

void SessionServer::start_job(Job* job, JobId id) {
  job->queue_wait_s = seconds_since(job->submitted);
  queue_wait_hist().observe(job->queue_wait_s);
  obs::Event("session_start")
      .field("job", id)
      .field("mode", kind_name(job->kind == Kind::kAdaptive))
      .field("degraded", job->degraded)
      .field("queue_wait_ms", job->queue_wait_s * 1000.0);
  job->run_begin = std::chrono::steady_clock::now();
  job->started = true;
}

std::unique_ptr<core::SessionStepper> SessionServer::make_stepper(
    const Job& job) {
  // Per-session isolation: everything mutable (controller, fallback,
  // workspaces, the per-slice TraceCapture) lives inside the stepper,
  // created on a worker thread. The only shared pieces are the const
  // weights and the coalescer, whose sink contract is bit-identity with
  // local inference.
  core::SessionConfig session = job.session;
  if (config_.coalesce) {
    session.inference_sink = &coalescer_;
  }
  if (job.kind == Kind::kFixed) {
    return std::make_unique<core::SessionStepper>(job.problem, *job.model,
                                                  session);
  }
  if (job.degraded) {
    return std::make_unique<core::SessionStepper>(
        job.problem, *job.degraded_model, session);
  }
  return std::make_unique<core::SessionStepper>(job.problem, *job.artifacts,
                                                session);
}

void SessionServer::run_job(JobId id) {
  Job* job = nullptr;
  {
    const util::MutexLock lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return;
    }
    job = it->second.get();
    --queued_;
    ++running_;
    sessions_active_gauge().set(static_cast<double>(running_));
  }
  space_cv_.notify_one();
  start_job(job, id);

  core::SessionResult result;
  std::exception_ptr error;
  coalescer_.session_started();
  try {
    obs::TraceScope serve_scope("serve.session", id);
    auto stepper = make_stepper(*job);
    while (stepper->step() == core::SessionStepper::Status::kRunning) {
    }
    stepper->rethrow_error();
    result = stepper->take_result();
  } catch (...) {
    error = std::current_exception();
  }
  coalescer_.session_finished();
  finish_job(id, job, std::move(result), error);
}

void SessionServer::run_coop_slice(JobId id) {
  Job* job = nullptr;
  {
    const util::MutexLock lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return;
    }
    job = it->second.get();
  }
  ready_wait_hist().observe(seconds_since(job->slice_enqueued));

  std::exception_ptr error;
  auto status = core::SessionStepper::Status::kRunning;
  if (!job->started) {
    start_job(job, id);
    try {
      job->stepper = make_stepper(*job);
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (!error) {
    // Coalescer accounting is per *slice*, not per session: the active
    // count drives the single-session inline bypass and the everyone-is-
    // waiting early flush, and in cooperative mode the set of sessions
    // that can have an inference in flight is exactly the set of slices
    // on workers (≤ session_threads), not the hundreds of parked
    // steppers.
    coalescer_.session_started();
    const auto slice_begin = std::chrono::steady_clock::now();
    {
      obs::TraceScope serve_scope("serve.session", id);
      for (int i = 0; i < config_.slice_steps &&
                      status == core::SessionStepper::Status::kRunning;
           ++i) {
        status = job->stepper->step();
      }
    }
    coalescer_.session_finished();
    sched_slice_hist().observe(seconds_since(slice_begin));
    if (status == core::SessionStepper::Status::kRunning) {
      // Yield: re-queue this session and give the worker to the next one.
      job->slice_enqueued = std::chrono::steady_clock::now();
      pool_.submit([this, id] { run_coop_slice(id); });
      return;
    }
    if (status == core::SessionStepper::Status::kError) {
      error = job->stepper->error();
    }
  }

  core::SessionResult result;
  if (!error) {
    try {
      result = job->stepper->take_result();
    } catch (...) {
      error = std::current_exception();
    }
  }
  job->stepper.reset();  // Free the grids before the result is parked.
  finish_job(id, job, std::move(result), error);
}

void SessionServer::finish_job(JobId id, Job* job, core::SessionResult result,
                               std::exception_ptr error) {
  const bool adaptive = job->kind == Kind::kAdaptive;
  const double job_s = seconds_since(job->run_begin);
  job_duration_hist(adaptive).observe(job_s);
  if (error) {
    failed_counter().add();
  }
  obs::Event("session_end")
      .field("job", id)
      .field("mode", kind_name(adaptive))
      .field("ok", !error)
      .field("degraded", job->degraded)
      .field("job_ms", job_s * 1000.0)
      .field("fallback_steps", result.fallback_steps);
  obs::flight_check_job_slo("job-" + std::to_string(id),
                            job->queue_wait_s * 1000.0, job_s * 1000.0);

  JobId next = 0;
  {
    const util::MutexLock lock(mutex_);
    // Feed the server-level quarantine ledger: a model this session's
    // guard disabled is a model degraded scheduling should avoid.
    for (const std::size_t model_id : result.quarantined_models) {
      unhealthy_models_.insert(model_id);
    }
    // Populate the result cache (full-quality, clean runs only: degraded
    // results are deliberately not what a later identical submission
    // should receive, and decorated solvers are outside the hash).
    if (!error && !job->degraded && job->cacheable &&
        config_.result_cache_entries > 0 && !job->session.solver_decorator) {
      cache_insert(job->scene_hash, result);
    }
    if (const auto it = tenant_inflight_.find(job->tenant);
        it != tenant_inflight_.end()) {
      if (--it->second == 0) {
        tenant_inflight_.erase(it);
      }
    }
    job->result = std::move(result);
    job->error = error;
    job->done = true;
    --running_;
    ++completed_;
    sessions_active_gauge().set(static_cast<double>(running_));
    jobs_counter().add();
    // Cooperative mode: a finished session frees an activation slot for
    // the next pending job.
    if (!pending_.empty() && running_ < config_.max_active_sessions) {
      next = pending_.front();
      pending_.pop_front();
      --queued_;
      ++running_;
      sessions_active_gauge().set(static_cast<double>(running_));
      if (const auto it = jobs_.find(next); it != jobs_.end()) {
        it->second->slice_enqueued = std::chrono::steady_clock::now();
      }
    }
  }
  done_cv_.notify_all();
  space_cv_.notify_one();
  if (next != 0) {
    pool_.submit([this, next] { run_coop_slice(next); });
  }
}

const core::TrainedModel* SessionServer::pick_degraded_model(
    const core::OfflineArtifacts& artifacts) {
  const core::TrainedModel* cheapest_healthy = nullptr;
  const core::TrainedModel* cheapest_any = nullptr;
  for (const std::size_t model_id : artifacts.selected_ids) {
    const core::TrainedModel* model = &artifacts.library[model_id];
    if (cheapest_any == nullptr ||
        model->mean_seconds < cheapest_any->mean_seconds) {
      cheapest_any = model;
    }
    if (unhealthy_models_.count(model_id) != 0) {
      continue;
    }
    if (cheapest_healthy == nullptr ||
        model->mean_seconds < cheapest_healthy->mean_seconds) {
      cheapest_healthy = model;
    }
  }
  // All quarantined: serve on the cheapest anyway — a degraded answer
  // still beats a rejection, and the per-step guard protects the run.
  return cheapest_healthy != nullptr ? cheapest_healthy : cheapest_any;
}

std::optional<core::SessionResult> SessionServer::cache_lookup(
    std::uint64_t hash) {
  const auto it = cache_index_.find(hash);
  if (it == cache_index_.end()) {
    return std::nullopt;
  }
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
  return it->second->second;  // Copy: the cache keeps its entry.
}

void SessionServer::cache_insert(std::uint64_t hash,
                                 const core::SessionResult& result) {
  if (const auto it = cache_index_.find(hash); it != cache_index_.end()) {
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    return;  // Deterministic pipeline: an existing entry is already right.
  }
  cache_lru_.emplace_front(hash, result);
  cache_index_[hash] = cache_lru_.begin();
  while (cache_lru_.size() > config_.result_cache_entries) {
    cache_index_.erase(cache_lru_.back().first);
    cache_lru_.pop_back();
  }
}

core::SessionResult SessionServer::wait(JobId id) {
  const util::MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw std::invalid_argument("SessionServer::wait: unknown job id " +
                                std::to_string(id));
  }
  Job* job = it->second.get();
  if (job->redeemed) {
    throw std::invalid_argument("SessionServer::wait: job " +
                                std::to_string(id) + " already redeemed");
  }
  // Claim the job BEFORE blocking: a second concurrent wait(id) must fail
  // the check above rather than block on a Job* this waiter erases (and
  // thereby frees) on wake-up.
  job->redeemed = true;
  while (!job->done) {
    done_cv_.wait(mutex_);
  }
  if (job->error) {
    std::exception_ptr error = job->error;
    jobs_.erase(it);
    std::rethrow_exception(error);
  }
  core::SessionResult result = std::move(job->result);
  jobs_.erase(it);
  return result;
}

void SessionServer::wait_all() {
  const util::MutexLock lock(mutex_);
  while (queued_ != 0 || running_ != 0) {
    done_cv_.wait(mutex_);
  }
}

void SessionServer::shutdown() {
  {
    const util::MutexLock lock(mutex_);
    accepting_ = false;
  }
  // Liveness: submitters blocked on a full queue must wake and observe
  // accepting_ == false (they throw ServerStoppedError) instead of
  // sleeping forever on a queue that will never drain below capacity.
  space_cv_.notify_all();
  wait_all();
  coalescer_.shutdown();
}

void SessionServer::mark_model_unhealthy(std::size_t model_id) {
  const util::MutexLock lock(mutex_);
  unhealthy_models_.insert(model_id);
}

std::size_t SessionServer::unhealthy_model_count() const {
  const util::MutexLock lock(mutex_);
  return unhealthy_models_.size();
}

std::size_t SessionServer::sessions_active() const {
  const util::MutexLock lock(mutex_);
  return running_;
}

std::size_t SessionServer::queue_high_water() const {
  const util::MutexLock lock(mutex_);
  return queue_high_water_;
}

std::uint64_t SessionServer::jobs_completed() const {
  const util::MutexLock lock(mutex_);
  return completed_;
}

std::uint64_t SessionServer::cache_hits() const {
  const util::MutexLock lock(mutex_);
  return cache_hits_;
}

std::uint64_t SessionServer::jobs_degraded() const {
  const util::MutexLock lock(mutex_);
  return degraded_jobs_;
}

}  // namespace sfn::serve
