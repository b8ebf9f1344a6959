// The benchmark's workloads.  Each runs one process-local VDCE from a
// seed, measures for a fixed number of seconds, checks the outputs and
// the service's invariants, and fills a RunResult.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: an untraced and a traced half of the same inputs;
  /// per-layer metrics come from the traced half.
  bool trace = false;
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// dag_burst_inproc and paper_apps_tcp.
[[nodiscard]] RunResult run_app_workload(const Options& options);

/// stream_pipeline.
[[nodiscard]] RunResult run_stream_workload(const Options& options);

/// Sets every catalogue metric of the mode that a workload left unset
/// to 0: the layers it bypasses did no work.
void zero_bypassed_layers(RunResult& result, bool traced);

}  // namespace perfbench
