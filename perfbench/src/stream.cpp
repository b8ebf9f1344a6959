// The stream_pipeline workload: the D16 four-stage stream
// (windowed source -> 3/2 resample -> FFT -> sink) on rt::StreamingEngine
// with windowed checkpoints.  An unpaced phase gives throughput; a
// phase paced by the benchmark's source wrapper at a fixed fraction of
// that throughput gives frame latency, timed from when each frame was
// due so that ring queueing does not stand in for stage cost.
#include <algorithm>
#include <atomic>
#include <thread>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "probes.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/streaming.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rt = vdce::rt;
using vdce::afg::FlowGraph;
using vdce::common::AppId;
using vdce::common::HostId;
using vdce::common::SiteId;
using vdce::common::TaskId;

namespace {

constexpr std::size_t kChannelCapacity = 8;
/// Source window: 64 samples per unit of input_size.  Long enough that
/// stage compute, not thread hand-off, sets the pace.
constexpr double kWindowSize = 16.0;
constexpr std::uint64_t kCheckpointWindow = 64;
/// The paced phase offers this share of the unpaced throughput.
constexpr double kPacedFraction = 0.25;
/// Fixed frame-latency limit behind on_time_frac.
constexpr double kFrameLimitMs = 20.0;
/// Frames of the stream each setup runs to warm threads and pools.
constexpr std::uint64_t kWarmupFrames = 500;
/// Frames past the reference prefix checked one by one per phase.
constexpr std::size_t kSampledFrames = 64;
constexpr int kSetups = 5;
/// Below this much time left, the pacer spins instead of sleeping.
constexpr auto kSpin = std::chrono::microseconds(200);

FlowGraph make_stream_graph() {
  FlowGraph g("stream_pipeline");
  vdce::afg::TaskProperties window;
  window.input_size = kWindowSize;
  const TaskId src = g.add_task("stream_window_source", "src", window);
  const TaskId rs = g.add_task("stream_resample", "rs");
  const TaskId fft = g.add_task("stream_window_fft", "fft");
  const TaskId sink = g.add_task("stream_sink", "sink");
  g.add_link(src, rs, 0.001);
  g.add_link(rs, fft, 0.001);
  g.add_link(fft, sink, 0.001);
  return g;
}

vdce::sched::AllocationTable make_stream_allocation(const FlowGraph& g) {
  vdce::sched::AllocationTable table(g.name());
  std::uint64_t host = 1;
  for (const auto& node : g.tasks()) {
    vdce::sched::AllocationEntry e;
    e.task = node.id;
    e.task_label = node.label;
    e.library_task = node.library_task;
    e.hosts = {HostId(host++)};
    e.site = SiteId(0);
    e.predicted_s = 0.0;
    table.add(e);
  }
  return table;
}

/// Paces the source stage: frame k is released at t0 + k * period, and
/// the lateness of each release is recorded.  Single producer (the
/// source stage thread); the sink reads `due()` only for frames that
/// travelled through the rings after their release.
class Pacer {
 public:
  void arm(double period_s, std::uint64_t frames) {
    period_ = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(period_s));
    next_ = 0;
    lag_us_.assign(frames, 0.0);
    armed_ = true;
  }
  void disarm() { armed_ = false; }

  void before_frame() {
    if (!armed_) return;
    if (next_ == 0) t0_ = Clock::now();
    const auto due = due_of(next_);
    if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    if (next_ < lag_us_.size()) {
      lag_us_[next_] = seconds_between(due, Clock::now()) * 1e6;
    }
    ++next_;
  }
  [[nodiscard]] Clock::time_point due_of(std::uint64_t k) const {
    return t0_ + period_ * static_cast<std::int64_t>(k);
  }
  [[nodiscard]] const std::vector<double>& lag_us() const { return lag_us_; }

 private:
  bool armed_ = false;
  Clock::duration period_{};
  Clock::time_point t0_{};
  std::uint64_t next_ = 0;
  std::vector<double> lag_us_;
};

/// FNV-1a, the sink digest's hash.
std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::byte>& bytes) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// The stream's app id: every phase streams the same frames, so a
/// shorter phase's outputs are a prefix of a longer one's.
const AppId kStreamApp{1};

/// Reference sink output of frame `k`: every stage called directly on
/// the plain builtin registry with the per-frame seeds the stream
/// contract fixes (stream_frame_seed(seed, k) ^ (app << 32) ^ task).
std::vector<std::byte> reference_frame(const FlowGraph& g,
                                       std::uint64_t seed, std::uint64_t k) {
  const auto& registry = vdce::tasklib::builtin_registry();
  std::map<TaskId, vdce::tasklib::Payload> out;
  for (const TaskId t : g.topological_order()) {
    std::vector<vdce::tasklib::Payload> inputs;
    for (const TaskId p : g.ordered_parents(t)) inputs.push_back(out.at(p));
    vdce::common::Rng rng(rt::stream_frame_seed(seed, k) ^
                          (static_cast<std::uint64_t>(kStreamApp.value())
                           << 32) ^
                          t.value());
    vdce::tasklib::TaskContext ctx;
    ctx.input_size = g.task(t).props.input_size;
    ctx.rng = &rng;
    out[t] = registry.run(g.task(t).library_task, inputs, ctx);
  }
  return out.at(g.exit_tasks().front()).to_wire();
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

struct StreamPhase {
  rt::StreamRunResult run;
  std::uint64_t frames = 0;
  double fps = 0.0;
  CpuTimes cpu;
  std::vector<double> latency_ms;  // paced only
  std::vector<double> lag_us;      // paced only
  /// Per window of the phase: frames per second and CPU ms per frame
  /// (unpaced), or median frame latency (paced), and the share of the
  /// machine's CPU time the hypervisor stole in it.
  std::vector<double> window_fps;
  std::vector<double> window_cpu_ms;
  std::vector<double> window_latency_ms;
  std::vector<double> window_steal;
  std::map<std::string, std::vector<double>> compute_ms;
  std::map<std::string, std::uint64_t> counters;
};

const std::vector<const char*>& stream_counters() {
  static const std::vector<const char*> names = {
      "datamgr.deadline_expiries", "datamgr.bytes_sent",
      "datamgr.frames_sent", "datamgr.pool.reuse_hits",
      "datamgr.pool.reuse_misses", "streaming.restarts"};
  return names;
}

struct Bench {
  Pacer pacer;
  TimedRegistry registry{"stream_window_source",
                         [this](const vdce::tasklib::TaskFn& inner,
                                const std::vector<vdce::tasklib::Payload>& in,
                                const vdce::tasklib::TaskContext& ctx) {
                           pacer.before_frame();
                           return inner(in, ctx);
                         }};
  FlowGraph graph = make_stream_graph();
  vdce::sched::AllocationTable allocation = make_stream_allocation(graph);
  TaskId sink = graph.exit_tasks().front();
  std::uint64_t seed = 1;

  /// Streams `frames` frames (0: until `stop_after_s`), paced when
  /// `paced_fps` > 0.
  StreamPhase run(std::uint64_t frames, double stop_after_s,
                  double paced_fps, bool traced) {
    StreamPhase ph;
    rt::StreamingConfig config;
    config.seed = seed;
    config.channel_capacity = kChannelCapacity;
    config.checkpoint_window = kCheckpointWindow;
    config.frames = frames;
    config.collect_outputs = true;  // tens of bytes per frame
    std::vector<Clock::time_point> emitted;  // unpaced: sink frame times
    if (paced_fps <= 0.0) {
      emitted.reserve(1 << 16);
      config.on_sink_frame = [&](TaskId, std::uint64_t) {
        emitted.push_back(Clock::now());
      };
    } else {
      pacer.arm(1.0 / paced_fps, frames);
      ph.latency_ms.assign(frames, 0.0);
      config.on_sink_frame = [&](TaskId, std::uint64_t k) {
        if (k < ph.latency_ms.size()) {
          ph.latency_ms[k] =
              seconds_between(pacer.due_of(k), Clock::now()) * 1e3;
        }
      };
    }
    std::map<std::string, std::uint64_t> before;
    for (const char* name : stream_counters()) before[name] = counter(name);
    (void)registry.take_compute_ms();
    rt::StreamingEngine engine(registry.registry(), config);
    rt::CheckpointStore store;
    std::unique_ptr<vdce::common::TraceRecorder> recorder;
    if (traced) {
      recorder = std::make_unique<vdce::common::TraceRecorder>();
      vdce::common::TraceRecorder::install(recorder.get());
    }
    std::atomic<bool> finished{false};
    std::jthread stopper;
    if (stop_after_s > 0.0) {
      stopper = std::jthread([&] {
        const auto until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(stop_after_s));
        while (!finished.load() && Clock::now() < until) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        engine.request_stop();
      });
    }
    const CpuTimes cpu0 = process_cpu();
    CpuSampler sampler(std::chrono::milliseconds(50));
    ph.run = engine.execute(graph, allocation, nullptr, kStreamApp, &store);
    ph.cpu = process_cpu() - cpu0;
    sampler.stop();
    if (paced_fps <= 0.0) {
      // Equal-count windows of the emitted frames.
      const std::size_t windows = windows_for(stop_after_s);
      for (std::size_t w = 0; emitted.size() >= windows && w < windows; ++w) {
        const std::size_t lo = emitted.size() * w / windows;
        const std::size_t hi = emitted.size() * (w + 1) / windows - 1;
        const double span = static_cast<double>(hi - lo);
        const Clock::time_point a = emitted[lo];
        const Clock::time_point b = emitted[hi];
        ph.window_fps.push_back(ratio(span, seconds_between(a, b)));
        ph.window_cpu_ms.push_back(
            ratio((sampler.cpu_at(b) - sampler.cpu_at(a)) * 1e3, span));
        ph.window_steal.push_back(sampler.steal_share(a, b));
      }
    } else {
      // Windows of the frames' due times.
      const std::size_t windows =
          windows_for(static_cast<double>(frames) / paced_fps);
      for (std::size_t w = 0; frames >= windows && w < windows; ++w) {
        const std::size_t lo = frames * w / windows;
        const std::size_t hi = frames * (w + 1) / windows;
        ph.window_latency_ms.push_back(
            median({ph.latency_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                    ph.latency_ms.begin() + static_cast<std::ptrdiff_t>(hi)}));
        ph.window_steal.push_back(
            sampler.steal_share(pacer.due_of(lo), pacer.due_of(hi)));
      }
    }
    finished = true;
    if (stopper.joinable()) stopper.join();
    if (recorder) vdce::common::TraceRecorder::install(nullptr);
    if (paced_fps > 0.0) {
      pacer.disarm();
      ph.lag_us = pacer.lag_us();
    }
    ph.frames = ph.run.sinks.at(sink).frames_emitted;
    ph.fps = ratio(static_cast<double>(ph.frames), ph.run.elapsed_s);
    ph.compute_ms = registry.take_compute_ms();
    for (const char* name : stream_counters()) {
      ph.counters[name] = counter(name) - before[name];
    }
    return ph;
  }
};

/// Output and fault-free checks of one phase; returns failed frames.
/// `reference` holds verified outputs of frames [0, reference->size());
/// frames past it are checked on a seeded sample of `samples` frames.
std::uint64_t check(Bench& b, const StreamPhase& ph, std::uint64_t expected,
                    const std::vector<std::vector<std::byte>>& reference,
                    std::size_t samples, RunResult& result) {
  const auto& sink = ph.run.sinks.at(b.sink);
  std::uint64_t failed = 0;
  if (expected > 0 && ph.frames != expected) {
    failed += expected > ph.frames ? expected - ph.frames : 0;
    result.fail("stream emitted " + std::to_string(ph.frames) + " of " +
                std::to_string(expected) + " frames");
  }
  std::uint64_t digest = kFnvOffset;
  for (const auto& wire : sink.outputs) digest = fnv1a(digest, wire);
  if (digest != sink.digest || sink.outputs.size() != ph.frames) {
    failed += ph.frames;
    result.fail("stream sink digest does not cover its outputs");
  }
  std::uint64_t wrong = 0;
  const std::size_t verified = std::min(reference.size(), sink.outputs.size());
  for (std::size_t k = 0; k < verified; ++k) {
    wrong += sink.outputs[k] != reference[k];
  }
  if (sink.outputs.size() > verified) {
    vdce::common::Rng pick(b.seed ^ 0xF4A3E5ull ^ sink.outputs.size());
    for (std::size_t i = 0; i < samples; ++i) {
      const std::uint64_t k =
          verified + pick.uniform_int(sink.outputs.size() - verified);
      wrong += sink.outputs[k] != reference_frame(b.graph, b.seed, k);
    }
  }
  if (wrong > 0) {
    failed += wrong;
    result.fail("stream frames differ from the reference: " +
                std::to_string(wrong));
  }
  if (ph.run.restarts != 0 || sink.frames_skipped != 0 ||
      sink.frames_rolled_back != 0 || ph.counters.at("streaming.restarts") != 0) {
    result.fail("stream restarted in a fault-free run");
  }
  if (ph.counters.at("datamgr.deadline_expiries") != 0) {
    result.fail("datamgr.deadline_expiries moved in a fault-free run");
  }
  if (ph.run.max_ring_occupancy > kChannelCapacity) {
    result.fail("ring occupancy exceeded the channel capacity");
  }
  return failed;
}

}  // namespace

RunResult run_stream_workload(const Options& opt) {
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<Bench> b;
  for (int i = 0; i < kSetups; ++i) {
    b.reset();
    const auto t0 = Clock::now();
    b = std::make_unique<Bench>();
    b->seed = opt.seed;
    (void)b->run(kWarmupFrames, 0.0, 0.0, false);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Untraced: half unpaced, half paced.  Traced: a quarter unpaced
  // untraced, a quarter unpaced traced (their CPU per frame gives the
  // tracing overhead), half paced traced.
  const double unpaced_s = opt.trace ? opt.seconds / 4 : opt.seconds / 2;
  StreamPhase plain = b->run(0, unpaced_s, 0.0, false);
  StreamPhase traced_plain;
  if (opt.trace) traced_plain = b->run(0, unpaced_s, 0.0, true);
  const double paced_fps =
      kPacedFraction * quiet_median(plain.window_fps, plain.window_steal);
  const auto paced_frames = static_cast<std::uint64_t>(
      std::max(1.0, paced_fps * opt.seconds / 2));
  StreamPhase paced = b->run(paced_frames, 0.0, paced_fps, opt.trace);

  // The paced phase is checked frame by frame against the reference
  // (its digest then equals the reference run's); the longer unpaced
  // phases must repeat those frames and match a sample beyond them.
  std::vector<std::vector<std::byte>> reference;
  reference.reserve(paced_frames);
  for (std::uint64_t k = 0; k < paced_frames; ++k) {
    reference.push_back(reference_frame(b->graph, b->seed, k));
  }
  result.attempted = plain.frames + paced_frames;
  result.failed = check(*b, paced, paced_frames, reference, 0, result) +
                  check(*b, plain, 0, reference, kSampledFrames, result);
  if (opt.trace) {
    result.attempted += traced_plain.frames;
    result.failed +=
        check(*b, traced_plain, 0, reference, kSampledFrames, result);
  }

  auto& m = result.metrics;
  const double frame_cpu_ms =
      ratio(plain.cpu.total() * 1e3, static_cast<double>(plain.frames));
  if (opt.trace) {
    const StreamPhase& ph = traced_plain;
    const double frames = static_cast<double>(std::max<std::uint64_t>(ph.frames, 1));
    m["trace.overhead_frac"] =
        ratio(ph.cpu.total() * 1e3 / frames, frame_cpu_ms) - 1.0;
    m["proc.sys_cpu_share"] = ratio(ph.cpu.sys_s, ph.cpu.total());
    m["streaming.producer_parks_per_frame"] =
        static_cast<double>(ph.run.producer_parks) / frames;
    m["streaming.max_ring_occupancy"] =
        static_cast<double>(ph.run.max_ring_occupancy);
    m["streaming.windows_captured"] =
        static_cast<double>(ph.run.sinks.at(b->sink).windows_captured);
    const double lag_p99_us = quantile(paced.lag_us, 0.99);
    m["streaming.source_lag_p99_us"] = lag_p99_us;
    m["tail.latency_p90_ms"] = windowed_quantile(
        paced.latency_ms, 0.90, paced.window_latency_ms.size());
    m["tail.latency_p99_ms"] = quantile(paced.latency_ms, 0.99);
    m["loadgen.lag_p99_ms"] = lag_p99_us / 1e3;
    for (const auto& [task, samples] : ph.compute_ms) {
      if (!samples.empty()) m["tasklib.compute_ms.p50." + task] = median(samples);
    }
    const auto& c = ph.counters;
    m["datamgr.bytes_per_app"] =
        static_cast<double>(c.at("datamgr.bytes_sent")) / frames;
    m["datamgr.frames_per_app"] =
        static_cast<double>(c.at("datamgr.frames_sent")) / frames;
    m["datamgr.pool_reuse_ratio"] =
        ratio(static_cast<double>(c.at("datamgr.pool.reuse_hits")),
              static_cast<double>(c.at("datamgr.pool.reuse_hits") +
                                  c.at("datamgr.pool.reuse_misses")));
  } else {
    std::size_t on_time = 0;
    for (const double l : paced.latency_ms) on_time += l <= kFrameLimitMs;
    m["setup_s"] = median(setup_s);
    m["latency_p50_ms"] =
        quiet_median(paced.window_latency_ms, paced.window_steal);
    m["throughput_per_s"] = quiet_median(plain.window_fps, plain.window_steal);
    m["cpu_ms_per_item"] = quiet_median(plain.window_cpu_ms, plain.window_steal);
    m["peak_rss_mb"] = peak_rss_mb();
    m["on_time_frac"] = ratio(static_cast<double>(on_time),
                              static_cast<double>(paced_frames));
  }
  return result;
}

}  // namespace perfbench
