// Self-test of the benchmark's own arithmetic at tiny sizes: the nearest-
// rank percentile, the tail-percentile rule (highest percentile with at
// least ten samples beyond it), the capacity-ladder rule (a rung counts
// only if every lower rung also passes), the backlog rule and span self
// time. Runs at the start of every benchmark run; a failure makes the run
// incorrect.

#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "perfbench self-test failed: %s\n", what);
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

Rung rung(double rate, double tail, bool grows = false, std::int64_t refused = 0) {
  Rung r;
  r.rate = rate;
  r.tail_ms = tail;
  r.backlog_grows = grows;
  r.refused = refused;
  return r;
}

trace::Span span(std::uint64_t id, std::uint64_t parent, const char* name,
                 std::int64_t start_ms, std::int64_t end_ms) {
  trace::Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ms * 1'000'000;
  s.end_ns = end_ms * 1'000'000;
  return s;
}

}  // namespace

int run_selftest() {
  g_failures = 0;

  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted
  expect(near(percentile(v, 50.0), 50.0), "p50 of 1..100 is 50");
  expect(near(percentile(v, 99.0), 99.0), "p99 of 1..100 is 99");
  expect(near(percentile(v, 100.0), 100.0), "p100 is the maximum");
  expect(near(percentile({}, 50.0), 0.0), "percentile of nothing is 0");
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "median of three");
  expect(std::isinf(percentile({1.0, kInf}, 99.0)), "refusals reach the tail");

  expect(tail_percentile(19) == 0.0, "19 samples: no percentile has 10 beyond");
  expect(tail_percentile(20) == 50.0, "20 samples: p50");
  expect(tail_percentile(100) == 90.0, "100 samples: p90");
  expect(tail_percentile(999) == 95.0, "999 samples: p95 (p99 has 9 beyond)");
  expect(tail_percentile(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile(10000) == 99.9, "10000 samples: p99.9");

  const double limit = 50.0;
  expect(capacity({rung(100, 5), rung(200, 8), rung(300, 60), rung(400, 9)},
                  limit) == 200.0,
         "a passing rung above a failing one does not count");
  expect(capacity({rung(100, 60), rung(200, 8)}, limit) == 0.0,
         "failing lowest rung gives 0");
  expect(capacity({rung(100, 5), rung(200, 50)}, limit) == 200.0,
         "a tail equal to the limit passes");
  expect(capacity({rung(100, 5), rung(200, 8, true)}, limit) == 100.0,
         "a growing backlog fails the rung");
  expect(capacity({rung(100, 5), rung(200, 8, false, 1)}, limit) == 100.0,
         "one refusal fails the rung");

  std::vector<std::int64_t> flat(200, 3), growing, spike(200, 2);
  for (int i = 0; i < 200; ++i) growing.push_back(i);
  for (int i = 190; i < 200; ++i) spike[i] = 500;
  expect(!backlog_grows(flat, 16), "steady queue does not grow");
  expect(backlog_grows(growing, 16), "linear queue growth is a backlog");
  expect(!backlog_grows(spike, 16), "a stall at the end is not a backlog");

  // Parent [0, 100] ms with children [10, 30] and [20, 50] (overlapping) and
  // [90, 120] (clipped to 90..100): covered 50 ms, self 50 ms.
  const std::vector<trace::Span> spans = {
      span(1, 0, "attack.run", 0, 100), span(2, 1, "models.surrogate.extract", 10, 30),
      span(3, 1, "retrieval.victim_query", 20, 50), span(4, 1, "retrieval.victim_query", 90, 120),
      span(5, 3, "models.victim.extract", 25, 45)};
  const std::vector<double> self = trace::self_ms(spans);
  expect(near(self[0], 50.0), "self time subtracts merged, clipped children");
  expect(near(self[2], 10.0), "nested child covers its parent's interval");
  const auto layers = trace::layer_self_ms(spans);
  expect(near(layers.at("retrieval"), 40.0), "layer self time sums by prefix");
  expect(near(layers.at("models"), 40.0), "layer self time sums every span");

  return g_failures;
}

}  // namespace perfbench
