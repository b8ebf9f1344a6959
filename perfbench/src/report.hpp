// The metric catalogue (every name the benchmark prints, with its unit)
// and the result record of one run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Metrics of a run without tracing: what a user of VDCE sees.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// Metrics of a traced run: one layer each, plus the attribution shares
/// and the harness's own probes.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// The library tasks whose compute time is reported one by one.
[[nodiscard]] const std::vector<std::string>& timed_library_tasks();

/// Outcome of one benchmark run.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric name -> value; units come from the catalogue.
  std::map<std::string, double> metrics;
  /// One line per failed correctness or invariant check.
  std::vector<std::string> problems;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// exactly the catalogue's metrics of the mode.  Throws when the run
/// produced a metric the catalogue lacks or missed one it declares.
[[nodiscard]] std::string result_json(const RunResult& result, bool traced);

}  // namespace perfbench
