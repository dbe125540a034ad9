#pragma once

// The benchmark's metric arithmetic, kept apart so the self-test can pin it
// on tiny inputs.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when empty.
double percentile(std::vector<double> samples, double p);

double median(const std::vector<double>& samples);
double mean(const std::vector<double>& samples);

// The highest percentile of {50, 90, 95, 99, 99.9} that still has at least
// ten of `n` samples beyond it; 0 when even the median has fewer.
double tail_percentile(std::size_t n);

// One rung of the open-loop rate ladder.
struct Rung {
  double rate = 0.0;          // offered requests per second
  std::int64_t sent = 0;      // requests due in the window
  std::int64_t refused = 0;   // turned away or failed
  // Latency at tail_percentile(sent), from due time; refused requests
  // count as infinite.
  double tail_ms = kInf;
  bool backlog_grows = true;  // queue still growing at the window's end

  bool passes(double limit_ms) const {
    return refused == 0 && !backlog_grows && tail_ms <= limit_ms;
  }
};

// Highest rate whose rung and every lower rung pass; 0 when the lowest
// rung fails. Rungs must be in ascending rate order.
double capacity(const std::vector<Rung>& rungs, double limit_ms);

// A backlog grows when the requests outstanding over the last quarter of a
// window (median of evenly spaced samples) exceed both `slack` and the
// second quarter's median by more than `slack`. Medians over many instants
// keep one short stall from reading as a growing queue.
bool backlog_grows(const std::vector<std::int64_t>& outstanding,
                   std::int64_t slack);

}  // namespace perfbench
