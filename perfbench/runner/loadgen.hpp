#pragma once

// Benchmark-side helpers with no dependency on the program under test:
// seeded randomness, the open-loop arrival schedule, lateness accounting,
// operation outcomes, the artifact content hash and the in-memory span
// recorder.
// Header-only so the helper tests link nothing but this file.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so the inputs it derives
/// from --seed do not change when the program's RNG does.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in (0, 1]: never 0, so -log(u) is finite.
  double uniform() {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Due times (seconds from the window start) of `count` Poisson arrivals
/// in [0, window_s): sorted uniform draws, which is a Poisson process
/// conditioned on its count. Fixing the count keeps the offered load of a
/// run exact, so seed-to-seed spread comes from arrival timing only. A pure
/// function of the seed.
inline std::vector<double> poisson_schedule(std::uint64_t seed,
                                            std::size_t count,
                                            double window_s) {
  if (!(window_s > 0.0)) {
    throw std::invalid_argument("poisson_schedule: window must be > 0");
  }
  SplitMix rng(seed ^ 0x5eedf00dull);
  std::vector<double> due(count);
  for (auto& t : due) {
    t = (1.0 - rng.uniform()) * window_s;  // [0, window_s)
  }
  std::sort(due.begin(), due.end());
  return due;
}

/// How late the generator ran: submission time minus due time, clamped
/// at 0 (an early wake-up is not lateness).
struct Lateness {
  double max_ms = 0.0;
  std::uint64_t samples = 0;

  void record(double due_s, double sent_s) {
    max_ms = std::max(max_ms, std::max(0.0, (sent_s - due_s) * 1e3));
    ++samples;
  }
};

/// How one attempted operation ended; everything but kOk is a failure.
enum class Outcome {
  kOk,
  kStepError,    ///< A step() or run threw.
  kJobError,     ///< A served job's wait() rethrew.
  kRejected,     ///< try_submit refused the job (queue or budget full).
  kNotConverged, ///< A PCG solve that must converge did not.
  kMismatch,     ///< An output check failed (bit or reference mismatch).
};

inline const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kStepError: return "step_error";
    case Outcome::kJobError: return "job_error";
    case Outcome::kRejected: return "rejected";
    case Outcome::kNotConverged: return "not_converged";
    case Outcome::kMismatch: return "mismatch";
  }
  return "unknown";
}

/// 64-bit FNV-1a over a file's bytes: the artifact content hash.
inline std::uint64_t fnv1a64_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof(buf));
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

/// One benchmark-owned span: a layer boundary the benchmark wraps.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::uint64_t job = 0;     ///< Shared by every span of one job/problem.
  const char* name = nullptr;
  double t0 = 0.0;  ///< Seconds since the recorder's epoch.
  double t1 = 0.0;
};

/// In-memory span store, written out once at the end of a traced run.
/// Thread-safe; the per-thread open-span stack gives each span its parent.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// RAII span; inert when the recorder is disabled or null.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, std::uint64_t job)
        : rec_(rec != nullptr && rec->enabled_ ? rec : nullptr) {
      if (rec_ == nullptr) {
        return;
      }
      span_.name = name;
      span_.job = job;
      span_.parent = open_top();
      span_.id = rec_->next_id();
      open_top() = span_.id;
      span_.t0 = rec_->now();
    }
    ~Scope() {
      if (rec_ == nullptr) {
        return;
      }
      span_.t1 = rec_->now();
      open_top() = span_.parent;
      rec_->push(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static std::uint64_t& open_top() {
      thread_local std::uint64_t top = 0;
      return top;
    }
    SpanRecorder* rec_;
    Span span_;
  };

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  std::uint64_t next_id() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ++last_id_;
  }
  void push(const Span& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
