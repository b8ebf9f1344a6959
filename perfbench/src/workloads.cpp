#include "workloads.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "dag_burst_inproc", "paper_apps_tcp", "stream_pipeline"};
  return names;
}

void zero_bypassed_layers(RunResult& result, bool traced) {
  if (!traced) return;
  for (const MetricDef& def : per_layer_metrics()) {
    result.metrics.try_emplace(def.name, 0.0);
  }
}

}  // namespace perfbench
