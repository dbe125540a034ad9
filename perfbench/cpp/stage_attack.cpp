// duo_attack stage: the paper pipeline for one attacker in a closed loop on
// the in-process RetrievalSystem. The attacker harvests ranking triplets
// from the victim and trains a C3D surrogate on them (SparseTransfer step
// 1), then runs DuoAttack (serial Algorithm 2) on one pair per round through
// a BlackBoxHandle whose retrieve function is timed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "attack/duo.hpp"
#include "attack/evaluation.hpp"
#include "bench.hpp"
#include "common/stopwatch.hpp"
#include "metrics/metrics.hpp"
#include "stats.hpp"
#include "timed_extractor.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace duo;

// The seed of every attacker-side choice (harvest seeds, surrogate init,
// the kRounds pairs, query order). Fixed like the world, so AP@m and query
// counts are exact functions of the code: between seeds they would vary by
// about 20%, far more than any useful regression bound.
constexpr std::uint64_t kAttackSeed = 1;

// Wall time of the transfer and query phases of each attack.run span,
// segmented by its direct children: a maximal run of surrogate calls is a
// transfer phase (until the next victim query), a maximal run of victim
// queries is a query phase (until the next surrogate call or the end).
struct PhaseSplit {
  double transfer_ms = 0.0;
  double query_ms = 0.0;
};

PhaseSplit split_phases(const std::vector<trace::Span>& all,
                        const trace::Span& run) {
  std::vector<const trace::Span*> kids;
  for (const auto& s : all) {
    if (s.parent == run.id) kids.push_back(&s);
  }
  std::sort(kids.begin(), kids.end(),
            [](const auto* a, const auto* b) { return a->start_ns < b->start_ns; });
  PhaseSplit out;
  int kind = 0;  // 0 none, 1 transfer, 2 query
  std::int64_t since = run.start_ns;
  auto close = [&](std::int64_t at) {
    const double ms = static_cast<double>(at - since) / 1e6;
    if (kind == 1) out.transfer_ms += ms;
    if (kind == 2) out.query_ms += ms;
  };
  for (const auto* k : kids) {
    const bool surrogate = k->name.rfind("models.surrogate.", 0) == 0;
    const bool query = k->name == "retrieval.victim_query";
    const int next = surrogate ? 1 : query ? 2 : kind;
    if (next != kind) {
      close(k->start_ns);
      kind = next;
      since = k->start_ns;
    }
  }
  close(run.end_ns);
  return out;
}

class AttackStage final : public Stage {
 public:
  explicit AttackStage(Context& ctx) : ctx_(ctx), world_(*ctx.world) {}

  // SparseTransfer step 1, timed as surrogate_s: harvest ranking triplets
  // through the victim, then train the surrogate (bench_common's
  // make_surrogate recipe, split so each half is timed).
  void prepare() override {
    const bench::BenchParams& params = world_.params;
    const auto& train = world_.dataset.train;
    Stopwatch surrogate_watch;
    Rng rng(kAttackSeed ^ 0x5u);
    retrieval::BlackBoxHandle harvest_handle(timed_retrieve());
    attack::SurrogateHarvestConfig hcfg;
    hcfg.m = params.m;
    hcfg.rounds = 8;
    hcfg.target_video_count = train.size() / 2;
    hcfg.target_triplets = bench::kDefaultSurrogateTriplets;
    hcfg.seed = kAttackSeed ^ 0x1234567;
    std::vector<std::int64_t> seeds{train[rng.uniform_index(train.size())].id(),
                                    train[rng.uniform_index(train.size())].id()};
    if (seeds[0] == seeds[1]) seeds.pop_back();
    Stopwatch harvest_watch;
    attack::SurrogateDataset harvested;
    {
      trace::Scope span("attack.harvest");
      harvested = attack::harvest_surrogate_dataset(harvest_handle,
                                                    *world_.store, seeds, hcfg);
    }
    harvest_s_ = harvest_watch.elapsed_seconds();
    harvest_queries_ = harvested.queries_spent;
    ctx_.checks.expect(harvest_handle.query_count() == harvested.queries_spent,
                       "harvest query count differs from the handle's count");

    const video::VideoGeometry geometry = world_.dataset.spec.geometry;
    surrogate_ = std::make_unique<TimedExtractor>(
        "surrogate", models::make_extractor(models::ModelKind::kC3D, geometry,
                                            params.feature_dim, rng));
    attack::SurrogateTrainConfig scfg;
    scfg.epochs = 12;
    scfg.triplets_per_epoch = 128;
    scfg.seed = kAttackSeed ^ 0x9e3779b9;
    Stopwatch train_watch;
    {
      trace::Scope span("attack.train_surrogate");
      attack::train_surrogate(*surrogate_, harvested, *world_.store, scfg);
    }
    train_s_ = train_watch.elapsed_seconds();
    surrogate_s_ = surrogate_watch.elapsed_seconds();

    config_ = bench::make_duo_config(params, geometry);
    config_.query.seed = 17 + kAttackSeed;
    duo_ = std::make_unique<attack::DuoAttack>(*surrogate_, config_);
    pairs_ = attack::sample_attack_pairs(train, kRounds, kAttackSeed ^ 0xA77AC4);
  }

  // DuoAttack (serial Algorithm 2) on pair i through a timed handle.
  void round(int i) override {
    const auto& pair = pairs_[static_cast<std::size_t>(i)];
    retrieval::BlackBoxHandle handle(timed_retrieve());
    Stopwatch watch;
    attack::AttackOutcome outcome;
    {
      trace::Scope span("attack.run", i);
      outcome = duo_->run(pair.v, pair.v_t, handle);
    }
    run_s_.push_back(watch.elapsed_seconds());

    const std::string tag = "pair " + std::to_string(i) + ": ";
    // DuoAttack clips each outer round to tau around that round's base
    // video (v <- v_adv between rounds), so the documented budget of the
    // result is iter_numH * tau plus rounding (tests/test_duo_pipeline.cpp).
    // Eq. 1's single-tau bound does not hold for iter_numH > 1; linf_max
    // reports how far past tau the outcomes go.
    const float linf = outcome.perturbation.norm_linf();
    linf_max_ = std::max(linf_max_, static_cast<double>(linf));
    ctx_.checks.expect(
        linf <= config_.transfer.tau * static_cast<float>(config_.iter_numH) + 1.0f,
        tag + "perturbation exceeds iter_numH * tau");
    const Tensor& adv = outcome.adversarial.data();
    ctx_.checks.expect(adv.min() >= 0.0f && adv.max() <= 255.0f,
                       tag + "pixel outside [0, 255]");
    ctx_.checks.expect(outcome.queries == handle.query_count(),
                       tag + "reported queries differ from the handle's count");

    metrics::RetrievalList list_adv, list_vt;
    {
      trace::Scope span("retrieval.retrieve");
      list_vt = world_.system->retrieve(pair.v_t, config_.m);
      list_adv = world_.system->retrieve(outcome.adversarial, config_.m);
    }
    ap_after_.push_back(metrics::ap_at_m(list_adv, list_vt) * 100.0);
    queries_.push_back(static_cast<double>(outcome.queries));
    std::int64_t changed = 0;
    for (std::size_t t = 1; t < outcome.t_history.size(); ++t) {
      if (outcome.t_history[t] != outcome.t_history[t - 1]) ++changed;
    }
    accept_.push_back(static_cast<double>(changed) /
                      static_cast<double>(std::max<std::int64_t>(1, outcome.queries)));

    ctx_.digest.add_bytes(adv.data(), static_cast<std::size_t>(adv.size()) * sizeof(float));
    ctx_.digest.add(outcome.queries);
    ctx_.digest.add_bytes(outcome.t_history.data(),
                          outcome.t_history.size() * sizeof(double));
  }

  void finish() override {
    ctx_.end_to_end.set("surrogate_s", surrogate_s_, "s");
    ctx_.end_to_end.set("attack_s_p50", median(run_s_), "s");
    ctx_.end_to_end.set("attack_ap_m_pct", mean(ap_after_), "%");
    ctx_.end_to_end.set("attack_queries", mean(queries_), "count");
    std::printf("[duo_attack] surrogate %.2fs (harvest %.2fs, train %.2fs), "
                "attack p50 %.3fs over %zu pairs, AP@m %.2f%%, queries %.1f\n",
                surrogate_s_, harvest_s_, train_s_, median(run_s_), run_s_.size(),
                mean(ap_after_), mean(queries_));
    if (ctx_.options.trace) finish_traced();
  }

 private:
  retrieval::BlackBoxHandle::RetrieveFn timed_retrieve() {
    return [this](const video::Video& v, std::size_t m) {
      trace::Scope span("retrieval.victim_query");
      Stopwatch watch;
      auto list = world_.system->retrieve(v, m);
      query_ms_.push_back(watch.elapsed_ms());
      return list;
    };
  }

  void finish_traced() {
    PhaseSplit phases;
    double self_s = 0.0;
    const auto all = trace::spans();
    const auto self = trace::self_ms(all);
    double fwd_ms = 0.0, bwd_ms = 0.0;
    std::int64_t calls = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      if (s.name == "attack.run") {
        const PhaseSplit p = split_phases(all, s);
        phases.transfer_ms += p.transfer_ms;
        phases.query_ms += p.query_ms;
        self_s += self[i] / 1e3;
      } else if (s.name == "models.surrogate.extract") {
        fwd_ms += s.ms();
        ++calls;
      } else if (s.name == "models.surrogate.backward") {
        bwd_ms += s.ms();
        ++calls;
      }
    }
    const double n = static_cast<double>(run_s_.size());
    // Wall-time shares of the stage's phases on the blocking path.
    const double attacks_s = std::accumulate(run_s_.begin(), run_s_.end(), 0.0);
    const double stage_s = harvest_s_ + train_s_ + attacks_s;
    const std::pair<const char*, double> shares[] = {
        {"attack.harvest", harvest_s_},
        {"attack.train_surrogate", train_s_},
        {"attack.run: transfer phases", phases.transfer_ms / 1e3},
        {"attack.run: query phases", phases.query_ms / 1e3},
        {"attack.run: self", self_s}};
    std::printf("[duo_attack] phase shares of %.2fs (harvest + train + %zu runs):\n",
                stage_s, run_s_.size());
    for (const auto& [name, sec] : shares) {
      std::printf("  %-30s %8.3fs %6.1f%%\n", name, sec, 100.0 * sec / stage_s);
    }
    MetricSheet& pl = ctx_.per_layer;
    pl.set("attack.harvest_s", harvest_s_, "s");
    pl.set("attack.harvest_queries", static_cast<double>(harvest_queries_), "count");
    pl.set("attack.train_surrogate_s", train_s_, "s");
    pl.set("attack.transfer_s", phases.transfer_ms / 1e3 / n, "s");
    pl.set("attack.query_phase_s", phases.query_ms / 1e3 / n, "s");
    pl.set("attack.self_s", self_s / n, "s");
    pl.set("attack.accept_ratio", mean(accept_), "ratio");
    pl.set("attack.linf_max", linf_max_, "pixel");
    pl.set("models.surrogate.fwd_s", fwd_ms / 1e3, "s");
    pl.set("models.surrogate.bwd_s", bwd_ms / 1e3, "s");
    pl.set("models.surrogate.calls", static_cast<double>(calls), "count");
    pl.set("retrieval.victim_query_ms_p50", percentile(query_ms_, 50.0), "ms");
    pl.set("retrieval.victim_query_ms_p99", percentile(query_ms_, 99.0), "ms");
    pl.set("retrieval.victim_queries", static_cast<double>(query_ms_.size()), "count");
  }

  Context& ctx_;
  World& world_;
  std::unique_ptr<TimedExtractor> surrogate_;
  attack::DuoConfig config_;
  std::unique_ptr<attack::DuoAttack> duo_;
  std::vector<attack::AttackPair> pairs_;
  double surrogate_s_ = 0.0, harvest_s_ = 0.0, train_s_ = 0.0;
  std::int64_t harvest_queries_ = 0;
  std::vector<double> run_s_, ap_after_, queries_, accept_, query_ms_;
  double linf_max_ = 0.0;
};

}  // namespace

std::unique_ptr<Stage> make_attack_stage(Context& ctx) {
  return std::make_unique<AttackStage>(ctx);
}

}  // namespace perfbench
