#include "bench.hpp"
#include "common/stopwatch.hpp"
#include "nn/losses.hpp"
#include "retrieval/trainer.hpp"
#include "timed_extractor.hpp"
#include "trace.hpp"

namespace perfbench {

bool find_workload(const std::string& name, Workload& out) {
  using duo::models::ModelKind;
  // I3D is the paper pipeline's victim. SlowFast's 4-8 channel fast path and
  // temporal-stride-4 slow path run other GEMM shapes and a cheaper victim
  // query through the same stages, so a kernel change shows on both shapes.
  static const Workload kWorkloads[] = {
      {"i3d", ModelKind::kI3D},
      {"slowfast", ModelKind::kSlowFast},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      out = w;
      return true;
    }
  }
  return false;
}

void MetricSheet::set(const std::string& name, double value,
                      const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Checks::tally(std::int64_t checked, std::int64_t bad,
                   const std::string& what) {
  attempted += checked;
  failed += bad;
  if (bad > 0 && failures.size() < 8) {
    failures.push_back(what + " (" + std::to_string(bad) + " of " +
                       std::to_string(checked) + ")");
  }
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

World build_world(const Workload& workload) {
  using namespace duo;
  constexpr std::uint64_t seed = 1;
  World world;
  world.params = bench::params_for(bench::Scale::kQuick);
  const video::DatasetSpec& spec = world.params.hmdb;
  world.dataset = video::SyntheticGenerator(spec).generate();

  Rng rng(seed);
  auto extractor = std::make_unique<TimedExtractor>(
      "victim", models::make_extractor(workload.victim, spec.geometry,
                                       world.params.feature_dim, rng));
  auto loss = nn::make_victim_loss(nn::VictimLossKind::kArcFace,
                                   world.params.feature_dim, spec.num_classes,
                                   rng);
  retrieval::TrainerConfig tcfg;
  tcfg.epochs = world.params.victim_epochs;
  tcfg.batch_size = 12;
  tcfg.learning_rate = 3e-3f;
  tcfg.seed = seed ^ 0x5bd1e995;
  {
    Stopwatch watch;
    trace::Scope span("retrieval.train_extractor");
    retrieval::train_extractor(*extractor, *loss, world.dataset.train, tcfg);
    world.train_s = watch.elapsed_seconds();
  }
  world.system = std::make_unique<retrieval::RetrievalSystem>(
      std::move(extractor), world.params.retrieval_nodes);
  {
    Stopwatch watch;
    trace::Scope span("retrieval.add_all");
    world.system->add_all(world.dataset.train);
    world.add_all_s = watch.elapsed_seconds();
  }
  world.store = std::make_unique<attack::VideoStore>(world.dataset.train);
  trace::Scope span("retrieval.retrieve");
  for (const auto& v : world.dataset.test) {
    world.expected.push_back(world.system->retrieve(v, world.params.m));
  }
  return world;
}

}  // namespace perfbench
