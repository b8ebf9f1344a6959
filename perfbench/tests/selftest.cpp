// Self-tests of the benchmark's own helpers: the quantile helper on
// known samples, the seeded open-loop schedule, and the metric
// catalogue.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "afg/serialize.hpp"
#include "report.hpp"
#include "schedule.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Quantile, KnownSamples) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
  // Linear interpolation between closest ranks, as numpy's default.
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(hundred, 0.99), 100.0);
  const auto p = percentiles(hundred);
  EXPECT_DOUBLE_EQ(p.p50, 51.0);
  EXPECT_DOUBLE_EQ(p.p99, 100.0);
  EXPECT_EQ(p.count, 101u);
}

TEST(Quantile, WindowedIgnoresSpoiledWindows) {
  // Five windows of 1..100; two hold a stall.
  std::vector<double> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) {
      samples.push_back(w == 1 || w == 3 ? 1000.0 : i);
    }
  }
  EXPECT_DOUBLE_EQ(windowed_quantile(samples, 0.5, 5), 50.5);
  EXPECT_DOUBLE_EQ(windowed_quantile(samples, 0.9, 5), 90.1);
  // Fewer samples than windows: the plain quantile.
  EXPECT_DOUBLE_EQ(windowed_quantile({3.0, 1.0, 2.0}, 0.5, 5), 2.0);
}

TEST(Quantile, QuietMedianSkipsStolenWindows) {
  // Six windows; the three with the most steal read slow.
  const std::vector<double> figures = {10.0, 30.0, 11.0, 31.0, 12.0, 32.0};
  const std::vector<double> steal = {0.001, 0.08, 0.0, 0.05, 0.002, 0.1};
  EXPECT_DOUBLE_EQ(quiet_median(figures, steal), 11.0);
  // Fewer than half quiet: the least-stolen half, rounded up.
  EXPECT_DOUBLE_EQ(
      quiet_median({5.0, 7.0, 9.0, 20.0}, {0.02, 0.03, 0.2, 0.1}), 6.0);
  EXPECT_DOUBLE_EQ(quiet_median({5.0, 7.0, 9.0}, {0.05, 0.05, 0.5}), 6.0);
  // A quiet run keeps every window; empty windows are left out.
  const double nan = std::nan("");
  EXPECT_DOUBLE_EQ(
      quiet_median({nan, 4.0, 6.0, 8.0, 10.0}, {0.0, 0.0, 0.009, 0.0, 0.0}),
      7.0);
  EXPECT_DOUBLE_EQ(quiet_median({}, {}), 0.0);
  EXPECT_EQ(windows_for(30.0), 15u);
  EXPECT_EQ(windows_for(4.0), 5u);
}

void expect_same(const std::vector<Burst>& a, const std::vector<Burst>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    ASSERT_EQ(a[i].apps.size(), b[i].apps.size());
    for (std::size_t k = 0; k < a[i].apps.size(); ++k) {
      const AppSpec& x = a[i].apps[k];
      const AppSpec& y = b[i].apps[k];
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.user, y.user);
      EXPECT_EQ(x.weight, y.weight);
      EXPECT_EQ(x.graph_seed, y.graph_seed);
      EXPECT_EQ(x.engine_seed, y.engine_seed);
      EXPECT_EQ(vdce::afg::to_text(make_dag(x)),
                vdce::afg::to_text(make_dag(y)));
    }
  }
}

TEST(OpenLoopSchedule, DeterministicFromSeed) {
  OpenLoopParams params;
  params.seconds = 2.0;
  const auto a = make_open_loop_schedule(42, params);
  const auto b = make_open_loop_schedule(42, params);
  expect_same(a, b);
  ASSERT_FALSE(a.empty());

  const auto c = make_open_loop_schedule(43, params);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_s != c[i].due_s;
  }
  EXPECT_TRUE(differs) << "another seed must give another schedule";
}

TEST(OpenLoopSchedule, ShapeMatchesParameters) {
  OpenLoopParams params;
  params.seconds = 20.0;
  params.rate_per_s = 100.0;
  params.max_burst = 8;
  const auto bursts = make_open_loop_schedule(7, params);
  std::size_t apps = 0;
  std::set<std::string> users;
  double last = 0.0;
  // Every block of max_burst bursts holds each size once.
  for (std::size_t block = 0; block + params.max_burst <= bursts.size();
       block += params.max_burst) {
    std::set<std::size_t> sizes;
    for (std::size_t i = 0; i < params.max_burst; ++i) {
      sizes.insert(bursts[block + i].apps.size());
    }
    EXPECT_EQ(sizes.size(), params.max_burst);
  }
  for (const Burst& b : bursts) {
    EXPECT_GE(b.due_s, last);
    EXPECT_LT(b.due_s, params.seconds);
    last = b.due_s;
    EXPECT_GE(b.apps.size(), 1u);
    EXPECT_LE(b.apps.size(), params.max_burst);
    for (const AppSpec& app : b.apps) {
      EXPECT_EQ(app.index, apps++);
      users.insert(app.user);
      const auto graph = make_dag(app);
      graph.validate();
      EXPECT_GE(graph.task_count(), 7u);
      EXPECT_LE(graph.task_count(), 13u);
    }
  }
  // The average rate holds over 2000 arrivals.
  const double rate = static_cast<double>(apps) / params.seconds;
  EXPECT_GT(rate, 95.0);
  EXPECT_LT(rate, 105.0);
  EXPECT_EQ(users.size(), open_loop_users().size());
}

TEST(MetricCatalogue, NamesAreUniqueAndWellFormed) {
  std::set<std::string> names;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) {
      EXPECT_TRUE(names.insert(def.name).second) << def.name;
      EXPECT_LE(def.name.size(), 64u) << def.name;
      EXPECT_FALSE(def.unit.empty()) << def.name;
    }
  }
}

TEST(MetricCatalogue, ResultLineHasExactlyTheModesMetrics) {
  RunResult result;
  result.attempted = 1;
  EXPECT_THROW((void)result_json(result, false), std::runtime_error);
  for (const MetricDef& def : end_to_end_metrics()) {
    result.metrics[def.name] = 1.5;
  }
  const std::string line = result_json(result, false);
  EXPECT_NE(line.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
            std::string::npos);
  result.metrics["not.declared"] = 1.0;
  EXPECT_THROW((void)result_json(result, false), std::runtime_error);
}

}  // namespace
}  // namespace perfbench
