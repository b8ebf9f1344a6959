#include "probes.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <string>

#include "common/metrics.hpp"
#include "common/rng.hpp"

namespace perfbench {

vdce::sched::HostSelectionMap TimedDirectory::host_selection(
    vdce::common::SiteId site, const vdce::afg::FlowGraph& graph,
    std::size_t threads) {
  const auto t0 = Clock::now();
  auto out = inner_->host_selection(site, graph, threads);
  consult_us_.add(seconds_between(t0, Clock::now()) * 1e6);
  return out;
}

TimedRegistry::TimedRegistry() { build({}, nullptr); }

TimedRegistry::TimedRegistry(const std::string& name, Wrapper wrapper) {
  build(name, std::move(wrapper));
}

void TimedRegistry::build(const std::string& wrapped, Wrapper wrapper) {
  const auto& builtin = vdce::tasklib::builtin_registry();
  for (const std::string& name : builtin.all_tasks()) {
    vdce::tasklib::LibraryEntry entry = builtin.get(name);
    auto log = std::make_unique<SampleLog>();
    vdce::tasklib::TaskFn timed =
        [inner = entry.fn, sink = log.get()](
            const std::vector<vdce::tasklib::Payload>& in,
            const vdce::tasklib::TaskContext& ctx) {
          vdce::common::ScopedSpan span(kComputeSpan, "perfbench");
          if (span.active() && ctx.rng != nullptr) {
            vdce::common::Rng probe = *ctx.rng;
            span.arg("rng", probe());
          }
          const auto t0 = Clock::now();
          auto out = inner(in, ctx);
          sink->add(seconds_between(t0, Clock::now()) * 1e3);
          return out;
        };
    if (name == wrapped && wrapper) {
      entry.fn = [timed, wrapper](const std::vector<vdce::tasklib::Payload>& in,
                                  const vdce::tasklib::TaskContext& ctx) {
        return wrapper(timed, in, ctx);
      };
    } else {
      entry.fn = std::move(timed);
    }
    logs_.emplace(name, std::move(log));
    registry_.add(std::move(entry));
  }
}

std::map<std::string, std::vector<double>> TimedRegistry::take_compute_ms() {
  std::map<std::string, std::vector<double>> out;
  for (auto& [name, log] : logs_) out[name] = log->take();
  return out;
}

std::uint64_t task_fingerprint(std::uint64_t seed, std::uint32_t app,
                               std::uint64_t task) {
  vdce::common::Rng rng(seed ^ (static_cast<std::uint64_t>(app) << 32) ^ task);
  return rng();
}

CpuTimes process_cpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return CpuTimes{secs(usage.ru_utime), secs(usage.ru_stime)};
}

CpuTimes operator-(const CpuTimes& a, const CpuTimes& b) {
  return CpuTimes{a.user_s - b.user_s, a.sys_s - b.sys_s};
}

HostJiffies host_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostJiffies out;
  double v = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    out.total += v;
    if (field == 7) out.steal = v;
  }
  return out;
}

CpuSampler::CpuSampler(std::chrono::milliseconds period) {
  samples_.push_back({Clock::now(), process_cpu().total(), host_jiffies()});
  thread_ = std::thread([this, period] {
    std::unique_lock lk(mu_);
    // stop() wakes the wait at once, so stopping adds no delay to the
    // interval being timed.
    while (!wake_.wait_for(lk, period, [this] { return stopping_; })) {
      samples_.push_back({Clock::now(), process_cpu().total(), host_jiffies()});
    }
    samples_.push_back({Clock::now(), process_cpu().total(), host_jiffies()});
  });
}

void CpuSampler::stop() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

CpuSampler::Sample CpuSampler::sample_at(Clock::time_point t) const {
  const auto after = std::lower_bound(
      samples_.begin(), samples_.end(), t,
      [](const Sample& s, Clock::time_point x) { return s.at < x; });
  if (after == samples_.begin()) return samples_.front();
  if (after == samples_.end()) return samples_.back();
  const Sample& s1 = *after;
  const Sample& s0 = *std::prev(after);
  const double f = seconds_between(s0.at, t) / seconds_between(s0.at, s1.at);
  const auto lerp = [f](double x0, double x1) { return x0 + (x1 - x0) * f; };
  return {t, lerp(s0.cpu_s, s1.cpu_s),
          {lerp(s0.host.steal, s1.host.steal),
           lerp(s0.host.total, s1.host.total)}};
}

double CpuSampler::cpu_at(Clock::time_point t) const {
  return sample_at(t).cpu_s;
}

double CpuSampler::steal_share(Clock::time_point a, Clock::time_point b) const {
  const HostJiffies x = sample_at(a).host;
  const HostJiffies y = sample_at(b).host;
  const double total = y.total - x.total;
  return total > 0.0 ? (y.steal - x.steal) / total : 0.0;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double calibration_ms() {
  const auto t0 = Clock::now();
  volatile double sink = 0.0;
  double acc = 0.0;
  for (int i = 1; i <= 4'000'000; ++i) {
    acc += std::sqrt(static_cast<double>(i)) * 1e-9;
  }
  sink = acc;
  (void)sink;
  return seconds_between(t0, Clock::now()) * 1e3;
}

std::uint64_t counter(const char* name) {
  return vdce::common::MetricsRegistry::global().counter(name).value();
}

SpanIndex::SpanIndex(const std::vector<vdce::common::TraceEvent>& events) {
  for (const auto& ev : events) {
    if (ev.phase != 'X') continue;
    Span span{ev.ts_us, ev.dur_us, ev.tid, 0};
    for (const auto& [key, value] : ev.args) {
      if (key == "rng") span.rng = std::stoull(value);
    }
    by_name_[ev.name].push_back(span);
  }
}

const std::vector<Span>& SpanIndex::named(const std::string& name) const {
  static const std::vector<Span> kNone;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNone : it->second;
}

double SpanIndex::nested_us(const Span& outer,
                            const std::string& prefix) const {
  double total = 0.0;
  for (auto it = by_name_.lower_bound(prefix);
       it != by_name_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    for (const Span& s : it->second) {
      if (s.tid == outer.tid && s.ts_us >= outer.ts_us &&
          s.end_us() <= outer.end_us()) {
        total += static_cast<double>(s.dur_us);
      }
    }
  }
  return total;
}

}  // namespace perfbench
