// Sample statistics shared by every workload of the benchmark.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of `samples` by linear interpolation between
/// closest ranks (the numpy "linear" method); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// p50/p99 of one sample set.
struct Percentiles {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] Percentiles percentiles(const std::vector<double>& samples);

/// Median over `windows` consecutive, equal-count chunks of `samples`
/// (in the order given) of each chunk's quantile `q`: a stall of the
/// machine that spoils one or two chunks does not decide the figure.
/// The plain quantile when there are fewer samples than chunks.
[[nodiscard]] double windowed_quantile(const std::vector<double>& samples,
                                       double q, std::size_t windows);

/// Time windows of a measured interval: one per two seconds, at least
/// five.
[[nodiscard]] inline std::size_t windows_for(double seconds) {
  return seconds >= 10.0 ? static_cast<std::size_t>(seconds / 2.0) : 5;
}

/// Steal share below which a window counts as quiet.
inline constexpr double kQuietSteal = 0.01;

/// Median of per-window figures over the windows in which the
/// hypervisor stole less than kQuietSteal of the machine's CPU time, or,
/// when fewer than half of them are that quiet, over the half (rounded
/// up) with the least steal; ties go to the earlier window.  A window
/// whose figure is NaN (nothing was measured in it) is left out.  On a
/// shared host a steal episode slows every thread hand-off by tens of
/// percent; one that covers less than three quarters of a run then
/// leaves the figure alone, and on a quiet host every window counts.
[[nodiscard]] double quiet_median(const std::vector<double>& figures,
                                  const std::vector<double>& steal_shares);

/// Ratio that reads 0 when the base is 0 (a layer that did no work).
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace perfbench
