#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double windowed_quantile(const std::vector<double>& samples, double q,
                         std::size_t windows) {
  if (windows == 0 || samples.size() < windows) return quantile(samples, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = static_cast<std::ptrdiff_t>(samples.size() * w / windows);
    const auto hi =
        static_cast<std::ptrdiff_t>(samples.size() * (w + 1) / windows);
    per_window.push_back(quantile(
        std::vector<double>(samples.begin() + lo, samples.begin() + hi), q));
  }
  return median(std::move(per_window));
}

double quiet_median(const std::vector<double>& figures,
                    const std::vector<double>& steal_shares) {
  std::vector<std::size_t> windows;
  for (std::size_t w = 0; w < figures.size() && w < steal_shares.size(); ++w) {
    if (!std::isnan(figures[w])) windows.push_back(w);
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal_shares[a] < steal_shares[b];
                   });
  std::vector<double> kept;
  for (const std::size_t w : windows) {
    if (kept.size() >= (windows.size() + 1) / 2 &&
        steal_shares[w] >= kQuietSteal) {
      break;
    }
    kept.push_back(figures[w]);
  }
  return median(std::move(kept));
}

Percentiles percentiles(const std::vector<double>& samples) {
  return Percentiles{quantile(samples, 0.50), quantile(samples, 0.99),
                     samples.size()};
}

}  // namespace perfbench
