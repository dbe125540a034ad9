#pragma once

// LatencyHistogram: exact, mergeable latency accounting with a fixed layout.
// Buckets are log-spaced at kBucketsPerOctave per octave from 2^kMinExp ms
// (~1 µs) to 2^kMaxExp ms (~2.2 min), plus an underflow bucket below and an
// overflow bucket above. The layout has no knobs, so every histogram can be
// merged into any other bucket by bucket, and a merge of per-client slices
// is bitwise the histogram of all their samples. Counts are exact; only the
// position of a sample within its bucket is lost, so a percentile is the
// upper edge of the bucket holding the nearest-rank sample, clamped to the
// exact max — never below the true value and at most one bucket (2^(1/8),
// ~9%) above it, inside the covered range.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace duo::serve {

class LatencyHistogram {
 public:
  static constexpr int kBucketsPerOctave = 8;
  static constexpr int kMinExp = -10;  // 2^-10 ms ≈ 0.98 µs
  static constexpr int kMaxExp = 17;   // 2^17 ms ≈ 131 s
  // Underflow + (kMaxExp − kMinExp) octaves + overflow.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>((kMaxExp - kMinExp) * kBucketsPerOctave) + 2;

  void record(double ms);
  void merge(const LatencyHistogram& other);

  // Number of recorded samples (the bucket sum).
  std::int64_t count() const noexcept;
  // Exact maximum over every recorded sample; 0 when empty.
  double max_ms() const noexcept { return max_ms_; }
  // Nearest-rank q-th quantile (rank llround(q·(count−1)) of the sorted
  // samples) reported as that sample's bucket upper edge, clamped to
  // max_ms(); 0 when empty.
  double percentile(double q) const;

  const std::array<std::int64_t, kBuckets>& buckets() const noexcept {
    return buckets_;
  }

  // Rebuilds the histogram from persisted state. Returns false, leaving
  // *this untouched, unless `buckets` holds exactly kBuckets non-negative
  // counts that sum to `count` and `max_ms` is a non-negative number.
  bool assign(const std::vector<std::int64_t>& buckets, double max_ms,
              std::int64_t count);

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  double max_ms_ = 0.0;
};

}  // namespace duo::serve
