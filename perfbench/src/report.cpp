#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"throughput_per_s", "1/s"},
      {"cpu_ms_per_item", "ms"},
      {"peak_rss_mb", "MB"},
      {"on_time_frac", "ratio"},
  };
  return defs;
}

const std::vector<std::string>& timed_library_tasks() {
  static const std::vector<std::string> tasks = {
      // synthetic (dag_burst_*)
      "synth_source", "synth_compute", "synth_sink",
      // Figure-3 linear solver
      "matrix_generate", "vector_generate", "lu_decomposition", "lu_lower",
      "lu_upper", "matrix_inversion", "permute_vector",
      "matrix_vector_multiply", "residual_check",
      // C3I pipeline
      "sensor_ingest", "target_detect", "track_filter", "threat_rank",
      "c3i_display",
      // Fourier app
      "signal_generate", "power_spectrum", "convolve",
      // D16 stream
      "stream_window_source", "stream_resample", "stream_window_fft",
      "stream_sink"};
  return tasks;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"submission.admit_us.p50", "us"},
        {"submission.admit_us.p99", "us"},
        {"submission.queue_wait_ms.p50", "ms"},
        {"submission.queue_wait_ms.p99", "ms"},
        {"submission.queue_depth.max", "count"},
        {"submission.rejected", "count"},
        {"submission.restarts", "count"},
        {"scheduler.schedule_us.p50", "us"},
        {"scheduler.schedule_us.p99", "us"},
        {"predict.cache_hit_ratio", "ratio"},
        {"scheduler.site_consult_us.p50", "us"},
        {"scheduler.site_consult_us.p99", "us"},
        {"scheduler.site_consults_per_app", "count"},
        {"daemon.rpc_retries", "count"},
        {"daemon.transport_failures", "count"},
        {"engine.setup_ms.p50", "ms"},
        {"engine.setup_ms.p99", "ms"},
        {"engine.channel_setup_us.p50", "us"},
        {"proc.sys_cpu_share", "ratio"},
        {"engine.makespan_ms.p50", "ms"},
        {"engine.makespan_ms.p99", "ms"},
        {"engine.input_wait_share", "ratio"},
        {"engine.attempts_per_task", "ratio"},
        {"tasklib.compute_share", "ratio"},
        {"datamgr.bytes_per_app", "B"},
        {"datamgr.frames_per_app", "count"},
        {"datamgr.pool_reuse_ratio", "ratio"},
        {"datamgr.deadline_expiries", "count"},
        {"checkpoint.captured_per_app", "count"},
        {"checkpoint.bytes_per_app", "B"},
        {"streaming.producer_parks_per_frame", "ratio"},
        {"streaming.max_ring_occupancy", "count"},
        {"streaming.windows_captured", "count"},
        {"streaming.source_lag_p99_us", "us"},
        {"share.admission", "ratio"},
        {"share.queue_wait", "ratio"},
        {"share.schedule", "ratio"},
        {"share.site_consult", "ratio"},
        {"share.engine_setup", "ratio"},
        {"share.compute", "ratio"},
        {"share.input_wait", "ratio"},
        {"share.other", "ratio"},
        {"tail.latency_p90_ms", "ms"},
        {"tail.latency_p99_ms", "ms"},
        {"loadgen.lag_p99_ms", "ms"},
        {"host.calib_ms", "ms"},
        {"trace.overhead_frac", "ratio"},
    };
    for (const std::string& task : timed_library_tasks()) {
      d.push_back({"tasklib.compute_ms.p50." + task, "ms"});
    }
    return d;
  }();
  return defs;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("metric value is not finite");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const RunResult& result, bool traced) {
  const auto& defs = traced ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> declared;
  for (const MetricDef& def : defs) declared.insert(def.name);
  for (const auto& [name, value] : result.metrics) {
    if (!declared.contains(name)) {
      throw std::runtime_error("undeclared metric " + name);
    }
  }
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : defs) {
    const auto it = result.metrics.find(def.name);
    if (it == result.metrics.end()) {
      throw std::runtime_error("metric " + def.name + " was not measured");
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + def.name + "\": {\"value\": " + number(it->second) +
           ", \"unit\": \"" + def.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
