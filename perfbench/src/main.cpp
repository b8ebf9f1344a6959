// vdce_perfbench: the end-to-end VDCE benchmark.
//
//   vdce_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   vdce_perfbench --list-metrics   (workloads and metrics with units)
//
// Prints a "machine" line (CPU model, nproc, build type, the
// calibration probe before and after the run, and the share of the
// machine's CPU time the hypervisor stole during it), then, as the last
// line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// without tracing, the per-layer metrics with it.  Exits 1 when a
// correctness or invariant check failed (after printing the line).
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "probes.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage() {
  std::cerr << "usage: vdce_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> | --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool list = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() != "0";
      } else if (arg == "--list-metrics") {
        list = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage();
    }
  }
  if (list) {
    for (const auto& name : workload_names()) {
      std::cout << "workload " << name << " -\n";
    }
    for (const auto& def : end_to_end_metrics()) {
      std::cout << "end_to_end " << def.name << " " << def.unit << "\n";
    }
    for (const auto& def : per_layer_metrics()) {
      std::cout << "per_layer " << def.name << " " << def.unit << "\n";
    }
    return 0;
  }
  if (!have_workload || opt.seconds <= 0.0) return usage();
  bool known = false;
  for (const auto& name : workload_names()) known = known || name == opt.workload;
  if (!known) {
    std::cerr << "unknown workload " << opt.workload << "\n";
    return 2;
  }
  const double calib_before = calibration_ms();
  const HostJiffies host0 = host_jiffies();
  RunResult result;
  try {
    result = opt.workload == "stream_pipeline" ? run_stream_workload(opt)
                                               : run_app_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "benchmark error: " << e.what() << "\n";
    return 1;
  }
  const HostJiffies host1 = host_jiffies();
  const double calib_after = calibration_ms();
  if (opt.trace) {
    result.metrics["host.calib_ms"] = (calib_before + calib_after) / 2;
  }
  zero_bypassed_layers(result, opt.trace);

  std::cout << "machine {\"cpu_model\": \"" << escaped(cpu_model())
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"calib_ms_before\": " << calib_before
            << ", \"calib_ms_after\": " << calib_after
            << ", \"steal_share\": "
            << ratio(host1.steal - host0.steal, host1.total - host0.total)
            << "}\n";
  for (const std::string& problem : result.problems) {
    std::cout << "check failed: " << problem << "\n";
  }
  std::string line;
  try {
    line = result_json(result, opt.trace);
  } catch (const std::exception& e) {
    std::cerr << "benchmark error: " << e.what() << "\n";
    return 1;
  }
  std::cout << line << std::endl;
  return result.correct ? 0 : 1;
}
