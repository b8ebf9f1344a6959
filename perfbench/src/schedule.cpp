#include "schedule.hpp"

#include <utility>

#include "common/rng.hpp"
#include "sim/workloads.hpp"

namespace perfbench {

const std::vector<UserSpec>& open_loop_users() {
  static const std::vector<UserSpec> users = {
      {"u0", 1.0}, {"u1", 1.0}, {"u2", 1.0}, {"u3", 2.0},
      {"u4", 2.0}, {"u5", 3.0}, {"u6", 4.0}, {"u7", 6.0}};
  return users;
}

std::vector<Burst> make_open_loop_schedule(std::uint64_t seed,
                                           const OpenLoopParams& params) {
  vdce::common::Rng rng(seed ^ 0x5DEECE66DULL);
  const auto& users = open_loop_users();
  const double mean_burst =
      (1.0 + static_cast<double>(params.max_burst)) / 2.0;
  const double mean_gap_s = mean_burst / params.rate_per_s;

  std::vector<Burst> bursts;
  std::uint64_t index = 0;
  double t = 0.0;
  // Burst sizes come in blocks holding each size 1..max_burst once, in
  // a seeded order: every seed offers the same mix of burst sizes, so
  // the tail reflects the service, not how many large bursts one seed
  // happened to draw.
  std::vector<std::size_t> sizes;
  for (;;) {
    // Gaps jitter within +-25% of the mean: bursts stay irregular but
    // never pile up.
    t += mean_gap_s * (0.75 + 0.5 * rng.uniform());
    if (t >= params.seconds) break;
    if (sizes.empty()) {
      for (std::size_t k = params.max_burst; k >= 1; --k) sizes.push_back(k);
      for (std::size_t i = sizes.size() - 1; i > 0; --i) {
        std::swap(sizes[i], sizes[rng.uniform_int(i + 1)]);
      }
    }
    Burst burst;
    burst.due_s = t;
    const std::size_t size = sizes.back();
    sizes.pop_back();
    for (std::size_t i = 0; i < size; ++i) {
      const UserSpec& user = users[rng.uniform_int(users.size())];
      AppSpec app;
      app.index = index++;
      app.user = user.name;
      app.weight = user.weight;
      app.graph_seed = rng();
      app.engine_seed = rng();
      burst.apps.push_back(std::move(app));
    }
    bursts.push_back(std::move(burst));
  }
  return bursts;
}

vdce::afg::FlowGraph make_dag(const AppSpec& spec) {
  vdce::common::Rng rng(spec.graph_seed);
  vdce::sim::SyntheticGraphParams params;
  params.family = vdce::sim::GraphFamily::kLayered;
  params.size = 2 + rng.uniform_int(3);
  params.width = 3;
  params.edge_probability = 0.3;
  // synth_compute burns 50k * input_size sqrt steps: a few microseconds
  // here, so the layers around the tasks do the work.
  params.min_input_size = 0.01;
  params.max_input_size = 0.05;
  params.min_transfer_mb = 0.001;
  params.max_transfer_mb = 0.01;
  auto graph = vdce::sim::make_synthetic_graph(params, rng);
  graph.set_name("dag" + std::to_string(spec.index));
  return graph;
}

}  // namespace perfbench
