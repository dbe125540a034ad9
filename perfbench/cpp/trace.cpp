#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{0};
std::mutex g_mutex;
std::vector<Span> g_spans;

thread_local std::uint64_t t_current = 0;
thread_local std::uint32_t t_thread = g_next_thread.fetch_add(1);

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void push(Span span) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(std::move(span));
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
std::uint64_t current() { return t_current; }

Scope::Scope(const char* name, std::int64_t request, double arg,
             std::uint64_t parent_hint)
    : name_(name), request_(request), arg_(arg) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current != 0 ? t_current : parent_hint;
  saved_ = t_current;
  t_current = id_;
  start_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  t_current = saved_;
  push({name_, start_, end, id_, parent_, request_, t_thread, arg_});
}

void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::int64_t request, double arg) {
  if (!enabled()) return;
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  push({name, start_ns, end_ns, id, t_current, request, t_thread, arg});
}

std::vector<Span> spans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

std::vector<double> self_ms(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      all.size());
  for (const Span& s : all) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = all[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> out(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    out[i] = static_cast<double>(all[i].end_ns - all[i].start_ns - covered) /
             1e6;
  }
  return out;
}

std::map<std::string, double> layer_self_ms(const std::vector<Span>& all) {
  const std::vector<double> self = self_ms(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string& n = all[i].name;
    out[n.substr(0, n.find('.'))] += self[i];
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const std::string& n = s.name;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%lld,\"arg\":%.17g}}%s\n",
                 n.c_str(), n.substr(0, n.find('.')).c_str(), s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.request), s.arg,
                 i + 1 == all.size() ? "" : ",");
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
