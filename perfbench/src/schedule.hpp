// Seeded workload inputs: the open-loop arrival schedule of
// dag_burst_inproc and the small synthetic AFGs it submits.
//
// Everything here is a pure function of the seed: runs given the same
// seed submit the same graphs, from the same users, at the same
// instants.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "afg/graph.hpp"

namespace perfbench {

/// One application of the open-loop schedule.
struct AppSpec {
  /// Position in the schedule; also names the graph ("dag<index>").
  std::uint64_t index = 0;
  std::string user;
  double weight = 1.0;
  /// Seeds the graph's shape, sizes and links.
  std::uint64_t graph_seed = 0;
  /// The submission's engine seed (fixes every task's RNG stream).
  std::uint64_t engine_seed = 0;
};

/// Applications that arrive together and go through one submit_batch.
struct Burst {
  /// Seconds after the start of the measurement when the burst is due.
  double due_s = 0.0;
  std::vector<AppSpec> apps;
};

struct OpenLoopParams {
  double seconds = 10.0;
  /// Average offered load, applications per second.
  double rate_per_s = 100.0;
  /// Burst sizes run through 1..max_burst in seeded order.
  std::size_t max_burst = 8;
};

/// The fair-share users of the open loop: unequal weights, so the
/// stride queue's ordering matters once bursts build depth.
struct UserSpec {
  std::string name;
  double weight = 1.0;
};
[[nodiscard]] const std::vector<UserSpec>& open_loop_users();

/// Bursts with gaps uniform in [0.75, 1.25] of the mean that keeps the
/// average rate at `rate_per_s`, and sizes drawn without replacement
/// from blocks of 1..max_burst; the last burst is due before `seconds`.
[[nodiscard]] std::vector<Burst> make_open_loop_schedule(
    std::uint64_t seed, const OpenLoopParams& params);

/// The small layered synthetic AFG of one application: 2-4 layers of
/// 3 tasks plus a sink (7-13 tasks), negligible compute and bytes.
[[nodiscard]] vdce::afg::FlowGraph make_dag(const AppSpec& spec);

}  // namespace perfbench
