// duo_perfbench: the repository benchmark binary.
//
//   duo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>] [--revision <rev>]
//
// One run sets up the victim world, then runs three stages against it —
// duo_attack (surrogate harvest + training, then DuoAttack on fixed pairs),
// serve_open_loop (closed-loop saturation windows; traced: Poisson open loop
// at fixed rates, then a capacity ladder), campaign_mix (closed loop of
// attack and benign sessions on a VirtualClock) — with their rounds
// interleaved (see Stage in bench.hpp) and the world set up again after
// each round (setup_s is the median of all set-ups), and checks every
// output. With --trace 1 it also records spans around each call into a
// layer, runs the kernel and index probes, prints a per-layer self-time
// table and writes a Chrome trace-event file into --out.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics untraced, per-layer metrics traced).
// A fuller record with provenance goes to <out>/result-*.json.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;
using duo::Stopwatch;

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "duo_perfbench: %s\nusage: duo_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
               "[--revision <rev>]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string metrics_json(const MetricSheet& sheet) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < sheet.entries().size(); ++i) {
    const auto& e = sheet.entries()[i];
    std::snprintf(buf, sizeof(buf), "%.12g", e.value);
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

// Self time per layer, summed over every thread (so parallel work counts
// once per thread), then the largest span names. Open-loop request spans
// (due -> answer) are left out: they wait on the work the other spans do.
void print_self_time_table(std::vector<trace::Span> all) {
  std::erase_if(all, [](const trace::Span& s) { return s.name == "bench.request"; });
  const auto by_layer = trace::layer_self_ms(all);
  double total = 0.0;
  for (const auto& [layer, ms] : by_layer) total += ms;
  std::printf("\nper-layer self time (traced run, summed over threads)\n");
  std::printf("  %-10s %12s %8s\n", "layer", "self_ms", "share");
  for (const auto& [layer, ms] : by_layer) {
    std::printf("  %-10s %12.1f %7.1f%%\n", layer.c_str(), ms,
                total > 0.0 ? 100.0 * ms / total : 0.0);
  }
  const std::vector<double> self = trace::self_ms(all);
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) by_name[all[i].name] += self[i];
  std::vector<std::pair<double, std::string>> top;
  for (const auto& [name, ms] : by_name) top.emplace_back(ms, name);
  std::sort(top.rbegin(), top.rend());
  std::printf("  top spans by self time:\n");
  for (std::size_t i = 0; i < top.size() && i < 8; ++i) {
    std::printf("    %-36s %12.1f ms\n", top[i].second.c_str(), top[i].first);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string revision = "unknown";
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      if (!find_workload(value, opt.workload)) usage("unknown workload");
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
      if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      opt.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--out") {
      opt.out_dir = value;
    } else if (arg == "--revision") {
      revision = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_trace) usage("--workload and --trace are required");

  Context ctx;
  ctx.options = opt;
  const int selftest_failures = run_selftest();
  ctx.checks.expect(selftest_failures == 0, "metric self-test failed");

  trace::set_enabled(opt.trace);
  Stopwatch total;

  // --- set-up: the same fixed world is built once before the stages (the
  // world they run against) and once more after each round, so its samples
  // spread over the run like every other metric's; setup_s is the median.
  std::vector<double> setup_s;
  const auto timed_build = [&] {
    Stopwatch watch;
    World w = build_world(opt.workload);
    setup_s.push_back(watch.elapsed_seconds());
    return w;
  };
  World world = timed_build();
  ctx.world = &world;

  std::unique_ptr<Stage> run[] = {make_attack_stage(ctx), make_serve_stage(ctx),
                                  make_campaign_stage(ctx)};
  for (auto& stage : run) stage->prepare();
  for (int i = 0; i < kRounds; ++i) {
    for (auto& stage : run) stage->round(i);
    timed_build();
  }
  for (auto& stage : run) stage->finish();
  ctx.end_to_end.set("setup_s", median(setup_s), "s");
  std::printf("[setup] %zu builds, median %.3fs (train %.3fs, add_all %.3fs); s:",
              setup_s.size(), median(setup_s), world.train_s, world.add_all_s);
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");

  if (opt.trace) {
    run_probes(ctx);
    ctx.per_layer.set("retrieval.train_extractor_s", world.train_s, "s");
    ctx.per_layer.set("retrieval.add_all_s", world.add_all_s, "s");
    const auto all = trace::spans();
    print_self_time_table(all);
    const std::string path = opt.out_dir + "/trace-" + opt.workload.name +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (trace::write_chrome_trace(path, all)) {
      std::printf("[trace] %zu spans -> %s\n", all.size(), path.c_str());
    }
  }

  for (const auto& f : ctx.checks.failures) {
    std::printf("[check failed] %s\n", f.c_str());
  }
  const bool correct = ctx.checks.failed == 0;
  const MetricSheet& sheet = opt.trace ? ctx.per_layer : ctx.end_to_end;

  // Full record with provenance, beside the trace.
  const std::string record = opt.out_dir + "/result-" + opt.workload.name +
                             "-seed" + std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(record.c_str(), "w")) {
    std::fprintf(
        f,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.6g, "
        "\"trace\": %d, \"revision\": \"%s\", \"nproc\": %u, "
        "\"compute_pool\": %zu, \"duo_threads\": \"%s\", \"build_type\": "
        "\"%s\", \"cxx_flags\": \"%s\", \"wall_s\": %.6f, \"digest\": "
        "\"%016llx\", \"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"end_to_end\": %s, \"per_layer\": %s}\n",
        opt.workload.name.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.seconds, opt.trace ? 1 : 0, json_escape(revision).c_str(),
        std::thread::hardware_concurrency(), duo::compute_pool().size(),
        std::getenv("DUO_THREADS") ? json_escape(std::getenv("DUO_THREADS")).c_str() : "",
        PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_CXX_FLAGS).c_str(),
        total.elapsed_seconds(),
        static_cast<unsigned long long>(ctx.digest.value()),
        correct ? "true" : "false", static_cast<long long>(ctx.checks.attempted),
        static_cast<long long>(ctx.checks.failed),
        metrics_json(ctx.end_to_end).c_str(), metrics_json(ctx.per_layer).c_str());
    std::fclose(f);
  }
  std::printf("[provenance] revision %s, nproc %u, compute pool %zu, digest "
              "%016llx, wall %.1fs, record %s\n",
              revision.c_str(), std::thread::hardware_concurrency(),
              duo::compute_pool().size(),
              static_cast<unsigned long long>(ctx.digest.value()),
              total.elapsed_seconds(), record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(ctx.checks.attempted),
              static_cast<long long>(ctx.checks.failed),
              metrics_json(sheet).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
