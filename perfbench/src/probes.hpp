// Layer probes that measure the stack from outside: a timing
// SiteDirectory decorator, a TaskRegistry whose entries time the
// builtin functions, process CPU/RSS readings, a fixed CPU-loop
// calibration probe, and an index over the spans the program records.
// Nothing here adds a span inside src/.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/trace.hpp"
#include "scheduler/directory.hpp"
#include "tasklib/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Thread-safe sample sink.
class SampleLog {
 public:
  void add(double v) {
    std::lock_guard lk(mu_);
    samples_.push_back(v);
  }
  [[nodiscard]] std::vector<double> take() {
    std::lock_guard lk(mu_);
    return std::exchange(samples_, {});
  }

 private:
  std::mutex mu_;
  std::vector<double> samples_;
};

/// Forwards every call to `inner` and times each Host Selection round
/// (the Figure-4 site consult: an in-process call or a daemon RPC).
class TimedDirectory final : public vdce::sched::SiteDirectory {
 public:
  explicit TimedDirectory(vdce::sched::SiteDirectory& inner) : inner_(&inner) {}

  [[nodiscard]] std::vector<vdce::common::SiteId> sites() const override {
    return inner_->sites();
  }
  [[nodiscard]] vdce::common::Duration site_distance(
      vdce::common::SiteId a, vdce::common::SiteId b) const override {
    return inner_->site_distance(a, b);
  }
  [[nodiscard]] vdce::common::Duration transfer_time(
      vdce::common::SiteId a, vdce::common::SiteId b,
      double mb) const override {
    return inner_->transfer_time(a, b, mb);
  }
  [[nodiscard]] vdce::sched::HostSelectionMap host_selection(
      vdce::common::SiteId site, const vdce::afg::FlowGraph& graph,
      std::size_t threads) override;
  [[nodiscard]] vdce::sched::HostSelection host_reselection(
      vdce::common::SiteId site, const vdce::afg::TaskNode& node,
      const std::vector<vdce::common::HostId>& excluded) override {
    return inner_->host_reselection(site, node, excluded);
  }
  [[nodiscard]] vdce::common::Duration base_time(
      const std::string& library_task) const override {
    return inner_->base_time(library_task);
  }
  [[nodiscard]] vdce::common::Duration host_transfer_time(
      vdce::common::HostId from, vdce::common::HostId to,
      double mb) const override {
    return inner_->host_transfer_time(from, to, mb);
  }

  /// Microseconds of every host_selection call since the last take.
  [[nodiscard]] std::vector<double> take_consult_us() {
    return consult_us_.take();
  }

 private:
  vdce::sched::SiteDirectory* inner_;
  SampleLog consult_us_;
};

/// Name of the span the timed registry records around every library
/// function call while a trace recorder is installed.  The data manager
/// runs the function on a thread of its own, so the span cannot be
/// matched to its task by thread; its "rng" argument can: the first
/// draw of the task's RNG, which the engine seeds from (seed, app,
/// task) -- see task_fingerprint().
inline constexpr const char* kComputeSpan = "perfbench.compute";

/// The first draw of the RNG the engine hands task `task` of app `app`
/// run with engine seed `seed` (the per-task seed the replay contract
/// rests on: seed ^ (app << 32) ^ task).
[[nodiscard]] std::uint64_t task_fingerprint(std::uint64_t seed,
                                             std::uint32_t app,
                                             std::uint64_t task);

/// A registry holding every builtin entry, each wrapped to time its
/// function per library task (and, when tracing, to record it as a
/// kComputeSpan span on the task's machine thread).  `wrap` may replace one entry's function
/// further (the stream benchmark paces its source this way).
class TimedRegistry {
 public:
  TimedRegistry();
  TimedRegistry(const TimedRegistry&) = delete;
  TimedRegistry& operator=(const TimedRegistry&) = delete;

  [[nodiscard]] const vdce::tasklib::TaskRegistry& registry() const {
    return registry_;
  }
  /// Per library task: milliseconds of every call since the last take.
  [[nodiscard]] std::map<std::string, std::vector<double>> take_compute_ms();

  /// Replaces the function of `name` by `fn(inner, inputs, ctx)`, where
  /// `inner` is the timed builtin.
  using Wrapper = std::function<vdce::tasklib::Payload(
      const vdce::tasklib::TaskFn& inner,
      const std::vector<vdce::tasklib::Payload>&,
      const vdce::tasklib::TaskContext&)>;
  TimedRegistry(const std::string& name, Wrapper wrapper);

 private:
  void build(const std::string& wrapped, Wrapper wrapper);

  std::map<std::string, std::unique_ptr<SampleLog>> logs_;
  vdce::tasklib::TaskRegistry registry_;
};

/// Process CPU seconds (user, system) so far.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
  [[nodiscard]] double total() const { return user_s + sys_s; }
};
[[nodiscard]] CpuTimes process_cpu();
[[nodiscard]] CpuTimes operator-(const CpuTimes& a, const CpuTimes& b);

/// Jiffies of all CPUs since boot: those the hypervisor stole, and all
/// of them (zeros where /proc/stat cannot be read).
struct HostJiffies {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] HostJiffies host_jiffies();

/// Samples process CPU and the host's jiffies on a thread of its own
/// until stopped, so the CPU and the stolen share of any interval of a
/// phase can be read afterwards.
class CpuSampler {
 public:
  explicit CpuSampler(std::chrono::milliseconds period);
  ~CpuSampler() { stop(); }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  void stop();
  /// Process CPU seconds at `t`, interpolated between samples; valid
  /// after stop().
  [[nodiscard]] double cpu_at(Clock::time_point t) const;
  /// Share of the machine's CPU time the hypervisor stole in [a, b];
  /// valid after stop().
  [[nodiscard]] double steal_share(Clock::time_point a,
                                   Clock::time_point b) const;

 private:
  struct Sample {
    Clock::time_point at;
    double cpu_s;
    HostJiffies host;
  };
  [[nodiscard]] Sample sample_at(Clock::time_point t) const;

  std::vector<Sample> samples_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;  // guarded by mu_
  std::thread thread_;
};

/// Restricts the calling thread, and every thread it starts from then
/// on, to the lowest-numbered CPU it may run on.  Returns that CPU, or
/// -1 (and changes nothing) when the affinity cannot be read or set.
int pin_to_one_cpu();

/// Peak resident set size of the process so far, MB.
[[nodiscard]] double peak_rss_mb();

/// Wall milliseconds of a fixed single-thread CPU loop: the machine
/// speed probe recorded before and after every run.
[[nodiscard]] double calibration_ms();

/// Value of a global MetricsRegistry counter.
[[nodiscard]] std::uint64_t counter(const char* name);

/// One 'X' span with its end time.
struct Span {
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
  /// The span's "rng" argument (0 when it has none).
  std::uint64_t rng = 0;
  [[nodiscard]] std::uint64_t end_us() const { return ts_us + dur_us; }
};

/// The spans of one traced interval, grouped by name.
class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<vdce::common::TraceEvent>& events);

  /// Spans named exactly `name` (e.g. "run:dag12"); empty when none.
  [[nodiscard]] const std::vector<Span>& named(const std::string& name) const;
  /// Total duration of `prefix` spans on `outer`'s thread inside it.
  [[nodiscard]] double nested_us(const Span& outer,
                                 const std::string& prefix) const;

 private:
  std::map<std::string, std::vector<Span>> by_name_;
};

}  // namespace perfbench
