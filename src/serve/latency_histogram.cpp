#include "serve/latency_histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace duo::serve {

namespace {

constexpr std::size_t kEdges = LatencyHistogram::kBuckets - 1;

// edges[k] = 2^(kMinExp + k / kBucketsPerOctave): the upper edge of bucket
// k, so bucket 0 (underflow) is [0, edges[0]) and the overflow bucket is
// [edges[kEdges − 1], ∞).
const std::array<double, kEdges>& edges() {
  static const std::array<double, kEdges> table = [] {
    std::array<double, kEdges> e{};
    for (std::size_t k = 0; k < kEdges; ++k) {
      e[k] = std::exp2(
          LatencyHistogram::kMinExp +
          static_cast<double>(k) / LatencyHistogram::kBucketsPerOctave);
    }
    return e;
  }();
  return table;
}

// Exclusive upper edge of `bucket` in ms; +inf for the overflow bucket.
double upper_edge(std::size_t bucket) {
  return bucket < kEdges ? edges()[bucket]
                         : std::numeric_limits<double>::infinity();
}

}  // namespace

void LatencyHistogram::record(double ms) {
  const auto& e = edges();
  // Index = number of edges <= ms; a NaN compares false everywhere and
  // lands in the overflow bucket.
  const auto b = static_cast<std::size_t>(
      std::upper_bound(e.begin(), e.end(), ms) - e.begin());
  ++buckets_[b];
  max_ms_ = std::max(max_ms_, ms);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  max_ms_ = std::max(max_ms_, other.max_ms_);
}

std::int64_t LatencyHistogram::count() const noexcept {
  std::int64_t n = 0;
  for (const std::int64_t c : buckets_) n += c;
  return n;
}

double LatencyHistogram::percentile(double q) const {
  const std::int64_t n = count();
  if (n == 0) return 0.0;
  const std::int64_t rank = std::clamp<std::int64_t>(
      std::llround(q * static_cast<double>(n - 1)), 0, n - 1);
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) return std::min(upper_edge(b), max_ms_);
  }
  return max_ms_;  // unreachable: the buckets sum to n > rank
}

bool LatencyHistogram::assign(const std::vector<std::int64_t>& buckets,
                              double max_ms, std::int64_t count) {
  if (buckets.size() != kBuckets || !(max_ms >= 0.0) || count < 0) {
    return false;
  }
  // Count down from `count` so hostile bucket values cannot overflow a sum.
  std::int64_t left = count;
  for (const std::int64_t c : buckets) {
    if (c < 0 || c > left) return false;
    left -= c;
  }
  if (left != 0) return false;
  std::copy(buckets.begin(), buckets.end(), buckets_.begin());
  max_ms_ = max_ms;
  return true;
}

}  // namespace duo::serve
