#pragma once

#include "core/session.hpp"
#include "core/stepper.hpp"
#include "serve/coalescer.hpp"
#include "util/annotations.hpp"
#include "util/thread_pool.hpp"
#include "workload/problems.hpp"

#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace sfn::serve {

/// Thrown by submit when the queue is full and the overflow policy is
/// kReject. The caller sheds load; nothing was enqueued.
class QueueFullError : public std::runtime_error {
 public:
  explicit QueueFullError(std::size_t capacity)
      : std::runtime_error("SessionServer: submission queue full (capacity " +
                           std::to_string(capacity) + ")") {}

 protected:
  /// Subclass seam (TenantBudgetError): a budget rejection is a shed-load
  /// signal too, so callers catching QueueFullError handle both.
  explicit QueueFullError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Thrown by submit when the submitting tenant is at its in-flight budget
/// (admission control). Derives from QueueFullError so existing shed-load
/// handling (and try_submit's nullopt conversion) covers it.
class TenantBudgetError : public QueueFullError {
 public:
  TenantBudgetError(const std::string& tenant, std::size_t budget)
      : QueueFullError("SessionServer: tenant '" + tenant +
                       "' at in-flight budget (" + std::to_string(budget) +
                       ")") {}
};

/// Thrown by submit after shutdown() (or during destruction).
class ServerStoppedError : public std::runtime_error {
 public:
  ServerStoppedError()
      : std::runtime_error("SessionServer: server is shut down") {}
};

struct ServerConfig {
  /// Workers running sessions. In cooperative mode this is the OS-thread
  /// budget that all concurrent sessions multiplex over; in threads mode
  /// it is also the bound on concurrently *running* sessions.
  std::size_t session_threads = 4;
  /// Bounded submission queue: at most this many accepted-but-not-started
  /// sessions (SFN_SERVE_QUEUE; values < 1 are clamped to 1 with a
  /// warning event — a zero queue would deadlock kBlock and always-throw
  /// kReject).
  std::size_t queue_capacity = 32;
  enum class Overflow {
    kBlock,   ///< submit() blocks until a slot frees.
    kReject,  ///< submit() throws QueueFullError.
  };
  Overflow overflow = Overflow::kBlock;

  /// Session scheduling mode (SFN_SCHED=coop|threads).
  ///   kCoop    — sessions are resumable core::SessionStepper state
  ///              machines multiplexed over the worker pool in
  ///              slice_steps-sized slices; up to max_active_sessions
  ///              sessions progress concurrently on session_threads OS
  ///              threads.
  ///   kThreads — one pool task runs each session to completion (the
  ///              pre-scheduler behaviour; kept as the benchmark baseline
  ///              and an operational escape hatch). Results are
  ///              bit-identical across modes: both drive the same
  ///              stepper.
  enum class Sched { kCoop, kThreads };
  Sched sched = Sched::kCoop;
  /// Steps a session runs per scheduling slice before yielding its worker
  /// (SFN_SCHED_SLICE, ≥ 1). Smaller = fairer, larger = less scheduling
  /// overhead.
  int slice_steps = 8;
  /// Cooperative mode: bound on co-resident (admitted-and-activated)
  /// sessions; admissions beyond it wait in the queue. Bounds stepper
  /// memory, not OS threads.
  std::size_t max_active_sessions = 256;

  /// Per-tenant in-flight budget (SFN_TENANT_BUDGET; 0 = unlimited). A
  /// tenant at its budget gets TenantBudgetError regardless of overflow
  /// policy — one tenant cannot occupy the whole queue.
  std::size_t tenant_budget = 0;
  /// Scene-hash result cache capacity in entries (SFN_RESULT_CACHE;
  /// 0 = off). Identical resubmissions (same problem/model/config bits)
  /// complete instantly with a copy of the cached result.
  std::size_t result_cache_entries = 0;
  /// Degraded-mode shedding: when the queue backlog reaches
  /// shed_watermark * queue_capacity, adaptive submissions are pinned to
  /// the cheapest quarantine-surviving candidate and run as fixed
  /// sessions (cheaper, still served) instead of being rejected outright.
  bool degraded_shedding = true;
  double shed_watermark = 0.5;

  /// Cross-session inference batching. Off = every session runs local
  /// inference on its own worker (the pre-serving behaviour; kept as the
  /// benchmark baseline and an operational escape hatch).
  bool coalesce = true;
  CoalescerConfig batch;

  /// Defaults with the SFN_SERVE_QUEUE / SFN_SCHED / SFN_SCHED_SLICE /
  /// SFN_TENANT_BUDGET / SFN_RESULT_CACHE / SFN_BATCH_* overrides applied.
  [[nodiscard]] static ServerConfig from_env();
};

/// Per-submission options (admission-control identity).
struct JobOptions {
  /// Tenant for budget accounting (empty = anonymous shared tenant).
  std::string tenant;
  /// Opt out of the result cache for this job (e.g. measurement runs).
  /// Jobs with a solver_decorator are never cached regardless.
  bool cacheable = true;
};

/// Multi-session serving engine: runs many adaptive / fixed sessions
/// concurrently, with cross-session inference batching through an
/// InferenceCoalescer.
///
/// Scheduling (DESIGN.md §16): in cooperative mode every session is a
/// core::SessionStepper — a resumable step-state machine — and the worker
/// pool runs slices of slice_steps steps, re-queueing the session after
/// each slice. A session may run its slices on different workers; the
/// stepper's per-slice trace capture makes that safe, and results are
/// bit-identical to threads mode and to solo runs by construction.
///
/// Admission ladder (submit): shutdown check → per-tenant budget →
/// scene-hash result cache → degraded-mode shedding → queue capacity
/// (block or reject per policy).
///
/// Isolation model (DESIGN.md §12): sessions share immutable weights (the
/// caller-owned TrainedModel / OfflineArtifacts, which must outlive their
/// jobs) and the coalescer; every piece of mutable runtime state lives
/// inside the per-job stepper, so no session can observe another's
/// decisions.
///
/// Shutdown drains: accepted jobs run to completion, their results stay
/// collectable via wait(), and the coalescer is stopped only after the
/// last session finished.
class SessionServer {
 public:
  using JobId = std::uint64_t;

  explicit SessionServer(ServerConfig config = ServerConfig{});
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Enqueue one fixed-model session. Honours the admission ladder; the
  /// returned id is redeemed with wait(). `model` is borrowed until the
  /// job completes.
  JobId submit_fixed(const workload::InputProblem& problem,
                     const core::TrainedModel& model,
                     core::SessionConfig session = {}, JobOptions options = {});

  /// Enqueue one adaptive session; `artifacts` is borrowed until the job
  /// completes.
  JobId submit_adaptive(const workload::InputProblem& problem,
                        const core::OfflineArtifacts& artifacts,
                        core::SessionConfig session = {},
                        JobOptions options = {});

  /// Non-blocking admission regardless of the overflow policy: nullopt
  /// instead of blocking/throwing when the queue (or the tenant budget)
  /// is full.
  std::optional<JobId> try_submit_fixed(const workload::InputProblem& problem,
                                        const core::TrainedModel& model,
                                        core::SessionConfig session = {},
                                        JobOptions options = {});
  std::optional<JobId> try_submit_adaptive(
      const workload::InputProblem& problem,
      const core::OfflineArtifacts& artifacts,
      core::SessionConfig session = {}, JobOptions options = {});

  /// Block until job `id` finished; returns its result (or rethrows the
  /// exception that killed it). Each id is redeemable exactly once;
  /// unknown and already-redeemed ids throw std::invalid_argument.
  core::SessionResult wait(JobId id) SFN_EXCLUDES(mutex_);

  /// Block until every accepted job has finished.
  void wait_all() SFN_EXCLUDES(mutex_);

  /// Stop accepting (submitters blocked on a full queue wake with
  /// ServerStoppedError), drain queued and running sessions, stop the
  /// coalescer. Idempotent; also called by the destructor. Results of
  /// drained jobs remain redeemable.
  void shutdown() SFN_EXCLUDES(mutex_);

  /// Operational seam: record a library model as unhealthy so degraded
  /// scheduling stops pinning jobs to it. Also fed automatically from
  /// every finished session's quarantine ledger.
  void mark_model_unhealthy(std::size_t model_id) SFN_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t unhealthy_model_count() const
      SFN_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t sessions_active() const SFN_EXCLUDES(mutex_);
  /// Peak accepted-but-not-started sessions (≤ queue_capacity).
  [[nodiscard]] std::size_t queue_high_water() const SFN_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t jobs_completed() const SFN_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t cache_hits() const SFN_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t jobs_degraded() const SFN_EXCLUDES(mutex_);
  [[nodiscard]] const InferenceCoalescer& coalescer() const {
    return coalescer_;
  }
  [[nodiscard]] const ServerConfig& config() const { return config_; }
  /// OpenMP team size each session worker set for itself at start:
  /// max(1, hardware threads / session_threads), so the workers' kernel
  /// teams together fill the machine instead of oversubscribing it.
  /// Results do not depend on it (the fluid and nn kernels are team-size
  /// invariant). Also the gauge serve.omp_threads_per_worker.
  [[nodiscard]] int omp_threads_per_worker() const {
    return omp_threads_per_worker_;
  }

 private:
  enum class Kind { kFixed, kAdaptive };
  /// Job records live in `jobs_` (guarded by mutex_) and are reached only
  /// through it, so every field below is effectively guarded by
  /// SessionServer::mutex_ — the attribute cannot name an enclosing
  /// class's member from a nested type, hence comments, not annotations.
  /// The submission fields (kind..degraded_model) are written once at
  /// enqueue and read by the worker without the lock: the enqueue
  /// critical section publishes them (release on unlock) and the worker's
  /// initial lookup under the same mutex acquires them; they are
  /// immutable from then on. The stepper is created and advanced by at
  /// most one slice task at a time; the pool's task-queue mutex carries
  /// the happens-before edge between consecutive slices on different
  /// workers. done/redeemed/result/error are only ever touched with
  /// mutex_ held.
  struct Job {
    Kind kind = Kind::kFixed;
    workload::InputProblem problem;
    const core::TrainedModel* model = nullptr;
    const core::OfflineArtifacts* artifacts = nullptr;
    core::SessionConfig session;
    std::string tenant;
    bool cacheable = true;
    std::uint64_t scene_hash = 0;
    /// Shed under overload: run as a fixed session on this model instead
    /// of the full adaptive machinery (degraded_model points into the
    /// borrowed artifacts' library).
    bool degraded = false;
    const core::TrainedModel* degraded_model = nullptr;
    /// Set at enqueue; read by the worker for the serve.queue_wait
    /// histogram (published with the submission fields, immutable after).
    std::chrono::steady_clock::time_point submitted;
    /// Cooperative-mode state (slice tasks only; see capability comment
    /// above).
    std::unique_ptr<core::SessionStepper> stepper;
    std::chrono::steady_clock::time_point slice_enqueued;
    std::chrono::steady_clock::time_point run_begin;
    double queue_wait_s = 0.0;
    bool started = false;
    bool done = false;
    bool redeemed = false;
    core::SessionResult result;
    std::exception_ptr error;
  };

  JobId enqueue(Job job, bool may_block) SFN_EXCLUDES(mutex_);
  void run_job(JobId id) SFN_EXCLUDES(mutex_);        ///< Threads mode.
  void run_coop_slice(JobId id) SFN_EXCLUDES(mutex_);  ///< Coop mode.
  void start_job(Job* job, JobId id);
  std::unique_ptr<core::SessionStepper> make_stepper(const Job& job);
  void finish_job(JobId id, Job* job, core::SessionResult result,
                  std::exception_ptr error) SFN_EXCLUDES(mutex_);
  /// Cheapest (mean_seconds) selected candidate not in the unhealthy
  /// ledger; falls back to the cheapest overall when all are unhealthy.
  const core::TrainedModel* pick_degraded_model(
      const core::OfflineArtifacts& artifacts) SFN_REQUIRES(mutex_);
  std::optional<core::SessionResult> cache_lookup(std::uint64_t hash)
      SFN_REQUIRES(mutex_);
  void cache_insert(std::uint64_t hash, const core::SessionResult& result)
      SFN_REQUIRES(mutex_);

  ServerConfig config_;
  int omp_threads_per_worker_;
  InferenceCoalescer coalescer_;

  mutable util::Mutex mutex_;
  util::CondVar space_cv_;  ///< submit() backpressure.
  util::CondVar done_cv_;   ///< wait()/drain wakeups.
  std::map<JobId, std::unique_ptr<Job>> jobs_ SFN_GUARDED_BY(mutex_);
  JobId next_id_ SFN_GUARDED_BY(mutex_) = 1;
  /// Accepted, not yet started.
  std::size_t queued_ SFN_GUARDED_BY(mutex_) = 0;
  /// Started, not yet finished (coop: activated steppers).
  std::size_t running_ SFN_GUARDED_BY(mutex_) = 0;
  std::size_t queue_high_water_ SFN_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ SFN_GUARDED_BY(mutex_) = 0;
  bool accepting_ SFN_GUARDED_BY(mutex_) = true;

  /// Coop mode: admitted jobs waiting for an activation slot
  /// (running_ < max_active_sessions).
  std::deque<JobId> pending_ SFN_GUARDED_BY(mutex_);
  /// Per-tenant in-flight (queued + running) counts.
  std::unordered_map<std::string, std::size_t> tenant_inflight_
      SFN_GUARDED_BY(mutex_);
  /// Library models reported quarantined by finished sessions (or marked
  /// by the operator); degraded scheduling avoids them.
  std::set<std::size_t> unhealthy_models_ SFN_GUARDED_BY(mutex_);
  /// Scene-hash LRU result cache: list front = most recent; map points
  /// into the list.
  std::list<std::pair<std::uint64_t, core::SessionResult>> cache_lru_
      SFN_GUARDED_BY(mutex_);
  std::unordered_map<
      std::uint64_t,
      std::list<std::pair<std::uint64_t, core::SessionResult>>::iterator>
      cache_index_ SFN_GUARDED_BY(mutex_);
  std::uint64_t cache_hits_ SFN_GUARDED_BY(mutex_) = 0;
  std::uint64_t degraded_jobs_ SFN_GUARDED_BY(mutex_) = 0;

  /// Declared last: its destructor joins the workers, which touch all of
  /// the state above.
  util::ThreadPool pool_;
};

}  // namespace sfn::serve
