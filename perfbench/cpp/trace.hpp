#pragma once

// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer of the repo, recorded from the benchmark
// side of the boundary: name ("<layer>.<call>"), start and end on one steady
// clock, the id of the span that caused it, an optional request id, the
// recording thread and one numeric argument (batch size, byte count, ...).
// Spans stay in memory until the run ends; write_chrome_trace then writes
// them as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// With tracing disabled a Scope costs one relaxed atomic load, so the same
// code paths run in the untraced run that produces the end-to-end numbers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;     // 0 = root
  std::int64_t request = -1;    // -1 = not tied to one request
  std::uint32_t thread = 0;
  double arg = 0.0;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// Nanoseconds on the steady clock every span uses.
std::int64_t now_ns();

void set_enabled(bool on);

// Id of the innermost open span on this thread (0 when none).
std::uint64_t current();

// RAII span. `parent_hint` is used when this thread has no open span, so
// work handed to pool threads can name the span that caused it.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t request = -1, double arg = 0.0,
                 std::uint64_t parent_hint = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::int64_t request_;
  double arg_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t saved_ = 0;
  std::int64_t start_ = 0;
};

// Record a finished span directly (used for intervals measured elsewhere,
// e.g. one open-loop request from due time to answer).
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::int64_t request = -1, double arg = 0.0);

// Every span recorded so far, in completion order.
std::vector<Span> spans();

// Self time of each span: its duration minus the part of its interval that
// its child spans cover (children merged, clipped to the parent).
std::vector<double> self_ms(const std::vector<Span>& all);

// Sum of self time per layer (the span-name prefix before the first '.').
std::map<std::string, double> layer_self_ms(const std::vector<Span>& all);

// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
bool write_chrome_trace(const std::string& path, const std::vector<Span>& all);

}  // namespace perfbench::trace
