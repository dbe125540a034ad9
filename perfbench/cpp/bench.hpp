#pragma once

// Shared types of the benchmark binary: run options, the metric sheet that
// becomes the result line, output checks, and the victim world every stage
// runs against.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/surrogate.hpp"
#include "bench_common.hpp"
#include "models/feature_extractor.hpp"
#include "retrieval/system.hpp"
#include "video/synthetic.hpp"

namespace perfbench {

// One workload: the victim architecture the whole pipeline runs against.
struct Workload {
  std::string name;
  duo::models::ModelKind victim = duo::models::ModelKind::kI3D;
};

// Returns false for an unknown name.
bool find_workload(const std::string& name, Workload& out);

struct Options {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

// Ordered name → (value, unit) sheet.
class MetricSheet {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// Output checks, counted against operations attempted.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log

  // Counts one checked operation; records `what` when it failed.
  void expect(bool ok, const std::string& what);
  // Counts `checked` operations of which `bad` failed.
  void tally(std::int64_t checked, std::int64_t bad, const std::string& what);
};

// FNV-1a over the deterministic outcomes of a run (adversarial videos,
// query counts, campaign session hashes), so a traced and an untraced run
// of one seed can be compared.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  template <typename T>
  void add(const T& value) {
    add_bytes(&value, sizeof(value));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// The deployed victim: a trained retrieval system whose extractor is
// wrapped in the timing decorator, over the quick-scale HMDB world. The
// world is the same for every benchmark seed (see build_world).
struct World {
  duo::bench::BenchParams params;
  duo::video::Dataset dataset;
  std::unique_ptr<duo::retrieval::RetrievalSystem> system;
  std::unique_ptr<duo::attack::VideoStore> store;
  // Direct RetrievalSystem::retrieve answer for each test video at depth
  // params.m: the reference every served answer must equal bitwise.
  std::vector<duo::metrics::RetrievalList> expected;
  double train_s = 0.0;
  double add_all_s = 0.0;
};

// Builds the fixed evaluation world: dataset, victim and gallery do not
// depend on the benchmark seed, so the attack stage's outcomes (AP@m, query
// counts) are exact functions of the code and set-up is the same work in
// every run. The seed drives the serve and campaign traffic.
World build_world(const Workload& workload);

// Everything a stage reads and writes.
struct Context {
  Options options;
  World* world = nullptr;
  MetricSheet end_to_end;
  MetricSheet per_layer;
  Checks checks;
  Digest digest;
};

// One user-facing activity of the pipeline. A run prepares every stage,
// then interleaves their rounds — attack pair, open-loop slices, campaign
// run — kRounds times, so a slow period of the shared machine touches a few
// samples of every metric rather than all samples of one, and each metric
// is a median over rounds. finish() writes the end-to-end metrics, and the
// per-layer metrics when tracing.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual void prepare() {}
  virtual void round(int i) = 0;
  virtual void finish() = 0;
};

inline constexpr int kRounds = 8;

std::unique_ptr<Stage> make_attack_stage(Context& ctx);
std::unique_ptr<Stage> make_serve_stage(Context& ctx);
std::unique_ptr<Stage> make_campaign_stage(Context& ctx);

// Kernel and index probes at fixed shapes (traced run only).
void run_probes(Context& ctx);

// Pins the benchmark's metric arithmetic on tiny inputs; returns the
// number of failed assertions.
int run_selftest();

}  // namespace perfbench
