#include "serve/coalescer.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/config.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <string_view>

namespace sfn::serve {

namespace {

/// Coalescer instruments. Histogram serve.batch_size carries the dispatch
/// group sizes (inline bypasses observe as 1 — they are batches of one);
/// serve.queue_depth is the instantaneous queue, _peak its high water.
obs::Histogram& batch_size_histogram() {
  static obs::Histogram& h = obs::histogram("serve.batch_size");
  return h;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("serve.queue_depth");
  return g;
}
obs::Gauge& queue_peak_gauge() {
  static obs::Gauge& g = obs::gauge("serve.queue_depth_peak");
  return g;
}
/// Wall time of one dispatcher execute() — the latency a batched request
/// pays on top of its own forward.
obs::Histogram& dispatch_latency_histogram() {
  static obs::Histogram& h = obs::histogram("serve.dispatch_latency");
  return h;
}
/// Why each micro-batch window closed (bounded label set).
obs::Counter& flush_reason_counter(const char* reason) {
  static obs::Counter& max_c =
      obs::counter_labeled("serve.batch_flush", "reason", "max");
  static obs::Counter& timeout_c =
      obs::counter_labeled("serve.batch_flush", "reason", "timeout");
  static obs::Counter& all_waiting_c =
      obs::counter_labeled("serve.batch_flush", "reason", "all_waiting");
  static obs::Counter& shutdown_c =
      obs::counter_labeled("serve.batch_flush", "reason", "shutdown");
  if (reason == std::string_view("max")) {
    return max_c;
  }
  if (reason == std::string_view("timeout")) {
    return timeout_c;
  }
  if (reason == std::string_view("all_waiting")) {
    return all_waiting_c;
  }
  return shutdown_c;
}

}  // namespace

CoalescerConfig CoalescerConfig::from_env() {
  CoalescerConfig config;
  config.batch_max = static_cast<std::size_t>(std::max<long long>(
      1, util::env_int("SFN_BATCH_MAX",
                       static_cast<long long>(config.batch_max))));
  config.batch_wait_us =
      std::max<long long>(0, util::env_int("SFN_BATCH_WAIT_US",
                                           config.batch_wait_us));
  return config;
}

InferenceCoalescer::InferenceCoalescer(CoalescerConfig config)
    : config_(config),
      pool_(config.inference_threads > 0 ? config.inference_threads
                                         : std::thread::hardware_concurrency()),
      dispatcher_([this] { dispatcher_loop(); }) {}

InferenceCoalescer::~InferenceCoalescer() { shutdown(); }

void InferenceCoalescer::run_inline(const nn::Network& net,
                                    const nn::Tensor& input, nn::Tensor* out) {
  // One workspace per calling thread: sessions are single-threaded, so
  // the bypass stays allocation-free in steady state without per-request
  // workspace churn.
  static thread_local nn::Workspace ws;
  requests_inline_.fetch_add(1, std::memory_order_relaxed);
  batch_size_histogram().observe(1.0);
  out->copy_from(net.forward_inference(input, ws));
}

void InferenceCoalescer::infer(const nn::Network& net, const nn::Tensor& input,
                               nn::Tensor* out) {
  // Single-session bypass: with nobody to batch against, the queue hop
  // would only add latency. A racing second session start is harmless —
  // the request is still computed correctly, just unbatched.
  if (active_sessions_.load(std::memory_order_relaxed) <= 1) {
    run_inline(net, input, out);
    return;
  }

  Request request;
  request.net = &net;
  request.input = &input;
  request.out = out;
  {
    util::ReleasableMutexLock lock(mutex_);
    if (stop_) {
      // Provably unlocked before the inline forward: running inference
      // while holding the queue mutex would stall every other session's
      // enqueue for the duration of a conv net.
      lock.release();
      run_inline(net, input, out);
      return;
    }
    queue_.push_back(&request);
    high_water_ = std::max(high_water_, queue_.size());
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
    queue_peak_gauge().set_max(static_cast<double>(queue_.size()));
    arrival_cv_.notify_one();
    while (!request.done) {
      done_cv_.wait(mutex_);
    }
  }
  if (request.error) {
    // Fault isolation: the exception a poisoned forward raised inside the
    // dispatcher surfaces on the session that owns the request, exactly
    // as if the session had run inference locally.
    std::rethrow_exception(request.error);
  }
}

void InferenceCoalescer::session_started() {
  active_sessions_.fetch_add(1, std::memory_order_relaxed);
}

void InferenceCoalescer::session_finished() {
  active_sessions_.fetch_sub(1, std::memory_order_relaxed);
  // A waiting dispatcher's early-flush threshold depends on the active
  // count; wake it so a window never outlives the sessions that fed it.
  arrival_cv_.notify_one();
}

void InferenceCoalescer::dispatcher_loop() {
  // A batch of one runs on this thread (Network::forward_batch's inline
  // path). Give it the one-thread team forward_batch gives its pool
  // workers: a full-width team here would share the cores with every
  // session worker's own team.
  omp_set_num_threads(1);
  for (;;) {
    std::vector<Request*> batch;
    {
      const util::MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) {
        arrival_cv_.wait(mutex_);
      }
      if (queue_.empty()) {
        if (stop_) {
          return;
        }
        continue;
      }

      // Micro-batch window: flush on batch_max requests or batch_wait_us
      // after the window opened, whichever comes first. Flush early once
      // every active session has a request in flight — each session
      // blocks on its one request, so the batch cannot grow further.
      // During shutdown the window collapses: drain immediately.
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(config_.batch_wait_us);
      const char* flush_reason = "max";
      while (!stop_ && queue_.size() < config_.batch_max) {
        const auto active = static_cast<std::size_t>(
            std::max(1, active_sessions_.load(std::memory_order_relaxed)));
        if (queue_.size() >= active) {
          flush_reason = "all_waiting";
          break;
        }
        if (arrival_cv_.wait_until(mutex_, deadline) ==
            std::cv_status::timeout) {
          flush_reason = "timeout";
          break;
        }
      }
      if (stop_) {
        flush_reason = "shutdown";
      }
      flush_reason_counter(flush_reason).add();

      if (queue_.size() > config_.batch_max) {
        // Oversized backlog (e.g. after a timeout storm): take one full
        // window, leave the rest for the next iteration.
        batch.assign(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(
                                          config_.batch_max));
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(
                                          config_.batch_max));
      } else {
        batch = std::move(queue_);
        queue_.clear();
      }
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }

    // Run the batch with the mutex provably dropped (the MutexLock scope
    // above ended): sessions keep enqueueing into the next window while
    // this one executes.
    execute(batch);

    {
      const util::MutexLock lock(mutex_);
      for (Request* request : batch) {
        request->done = true;
      }
    }
    done_cv_.notify_all();
  }
}

void InferenceCoalescer::execute(const std::vector<Request*>& batch) {
  SFN_TRACE_SCOPE("serve.dispatch");
  const auto dispatch_begin = std::chrono::steady_clock::now();
  // Group by model identity. Sessions share weights, so requests for the
  // same architecture carry the same Network pointer; ordering the groups
  // by pointer is fine — grouping only affects scheduling, never values.
  std::vector<Request*> sorted = batch;
  std::sort(sorted.begin(), sorted.end(), [](const Request* a,
                                             const Request* b) {
    return a->net < b->net;
  });

  std::vector<const nn::Tensor*> inputs;
  std::vector<nn::Tensor*> outputs;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j]->net == sorted[i]->net) {
      ++j;
    }
    inputs.clear();
    outputs.clear();
    for (std::size_t k = i; k < j; ++k) {
      inputs.push_back(sorted[k]->input);
      outputs.push_back(sorted[k]->out);
    }
    batch_size_histogram().observe(static_cast<double>(inputs.size()));
    try {
      sorted[i]->net->forward_batch(inputs, outputs, pool_);
    } catch (...) {
      // A forward threw (e.g. a numeric-invariant trip on one poisoned
      // input). Re-run the group one request at a time so only the
      // offender fails; everyone else still gets a correct result, and
      // the dispatcher thread never dies.
      for (std::size_t k = i; k < j; ++k) {
        try {
          sorted[k]->net->forward_batch({sorted[k]->input}, {sorted[k]->out},
                                        pool_);
        } catch (...) {
          sorted[k]->error = std::current_exception();
        }
      }
    }
    {
      const util::MutexLock guard(mutex_);
      ++batches_;
      requests_batched_ += inputs.size();
    }
    i = j;
  }
  dispatch_latency_histogram().observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    dispatch_begin)
          .count());
}

void InferenceCoalescer::shutdown() {
  // Claim the dispatcher thread under the lock so concurrent shutdown()
  // calls cannot both observe it joinable and both join it (UB): exactly
  // one caller moves it into a local; everyone else gets an empty thread.
  std::thread dispatcher;
  {
    const util::MutexLock guard(mutex_);
    stop_ = true;
    dispatcher = std::move(dispatcher_);
  }
  arrival_cv_.notify_all();
  if (dispatcher.joinable()) {
    dispatcher.join();
  }
}

std::size_t InferenceCoalescer::queue_high_water() const {
  const util::MutexLock guard(mutex_);
  return high_water_;
}

std::size_t InferenceCoalescer::pending() const {
  const util::MutexLock guard(mutex_);
  return queue_.size();
}

std::uint64_t InferenceCoalescer::batches_dispatched() const {
  const util::MutexLock guard(mutex_);
  return batches_;
}

std::uint64_t InferenceCoalescer::requests_batched() const {
  const util::MutexLock guard(mutex_);
  return requests_batched_;
}

std::uint64_t InferenceCoalescer::requests_inline() const {
  return requests_inline_.load(std::memory_order_relaxed);
}

}  // namespace sfn::serve
