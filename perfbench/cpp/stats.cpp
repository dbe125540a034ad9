#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double tail_percentile(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    // Samples strictly beyond the nearest-rank position of p (the epsilon
    // keeps 0.999 * 10000 from rounding up past 9990).
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    if (static_cast<double>(n) - rank >= 10.0) return p;
  }
  return 0.0;
}

double capacity(const std::vector<Rung>& rungs, double limit_ms) {
  double best = 0.0;
  for (const Rung& r : rungs) {
    if (!r.passes(limit_ms)) break;
    best = r.rate;
  }
  return best;
}

bool backlog_grows(const std::vector<std::int64_t>& outstanding,
                   std::int64_t slack) {
  const std::size_t n = outstanding.size();
  if (n < 4) return false;
  auto quarter_median = [&](std::size_t q) {
    return median(std::vector<double>(outstanding.begin() + q * n / 4,
                                      outstanding.begin() + (q + 1) * n / 4));
  };
  const double second = quarter_median(1);
  const double last = quarter_median(3);
  const auto s = static_cast<double>(slack);
  return last > s && last > second + s;
}

}  // namespace perfbench
