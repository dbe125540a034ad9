// campaign_mix stage: a closed loop of four sessions on one served victim —
// two `sparse` attackers (sparse_query_pipelined through ResilientHandle
// retries) and two `benign` readers with exponential think time — under a
// per-client rate limit, a shared client pacer and seeded transient faults,
// all on the campaign's VirtualClock. This is the shape of the campaign_soak
// reference manifest, never killed. The same manifest runs once per round;
// campaign_s is the median wall time of CampaignRunner::run, and every
// repetition must reproduce the first one's session outcomes bitwise.

#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "common/stopwatch.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace duo;

campaign::CampaignManifest make_manifest(std::uint64_t seed,
                                         std::size_t roster_size) {
  campaign::CampaignManifest m;
  m.name = "perfbench-campaign-mix";
  m.seed = seed;
  m.client_rate = 500.0;
  m.client_burst = 2.0;
  m.fault_error_prob = 0.05;
  m.fault_seed = seed * 31 + 7;
  m.pacer_rate = 4000.0;
  m.pacer_burst = 4.0;
  m.max_attempts = 8;
  m.query_timeout_ms = 5000.0;
  m.submit_deadline_ms = 5000.0;

  Rng rng(seed ^ 0xCA3Fu);
  for (int i = 0; i < 2; ++i) {
    campaign::SessionSpec s;
    s.client_id = "attacker-" + std::to_string(i);
    s.role = campaign::SessionRole::kSparse;
    s.seed = seed * 100 + static_cast<std::uint64_t>(i);
    s.m = 8;
    s.iterations = 120;
    s.support_k = 60;
    s.support_n = 3;
    s.source_index = static_cast<std::int64_t>(rng.uniform_index(roster_size));
    do {
      s.target_index = static_cast<std::int64_t>(rng.uniform_index(roster_size));
    } while (s.target_index == s.source_index);
    m.sessions.push_back(s);
  }
  for (int i = 0; i < 2; ++i) {
    campaign::SessionSpec s;
    s.client_id = "reader-" + std::to_string(i);
    s.role = campaign::SessionRole::kBenign;
    s.seed = seed * 100 + 50 + static_cast<std::uint64_t>(i);
    s.m = 8;
    s.queries = 160;
    s.think_ms = 2.0;
    m.sessions.push_back(s);
  }
  return m;
}

bool same_outcomes(const campaign::CampaignOutcome& a,
                   const campaign::CampaignOutcome& b) {
  if (a.sessions.size() != b.sessions.size()) return false;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const auto& x = a.sessions[i];
    const auto& y = b.sessions[i];
    if (x.outcome_hash != y.outcome_hash || x.final_t != y.final_t ||
        x.t_history != y.t_history) {
      return false;
    }
  }
  return true;
}

class CampaignStage final : public Stage {
 public:
  explicit CampaignStage(Context& ctx)
      : ctx_(ctx),
        world_(*ctx.world),
        manifest_(make_manifest(ctx.options.seed, world_.dataset.test.size())) {}

  void round(int i) override {
    campaign::CampaignRunner runner(*world_.system, world_.dataset.test, manifest_);
    Stopwatch watch;
    {
      trace::Scope span("campaign.run", i);
      outcomes_.push_back(runner.run());
    }
    wall_s_.push_back(watch.elapsed_seconds());
    const auto& out = outcomes_.back();
    const std::string tag = "campaign run " + std::to_string(i) + ": ";
    ctx_.checks.expect(out.ledger_ok, tag + "billing ledger does not reconcile");
    ctx_.checks.expect(out.all_completed(), tag + "a session did not complete");
    ctx_.checks.expect(same_outcomes(outcomes_.front(), out),
                       tag + "session outcomes differ from the first run");
  }

  void finish() override {
    for (const auto& s : outcomes_.front().sessions) {
      ctx_.digest.add(s.outcome_hash);
      ctx_.digest.add(s.final_t);
    }
    const double campaign_s = median(wall_s_);
    ctx_.end_to_end.set("campaign_s", campaign_s, "s");
    const auto& last = outcomes_.back();
    std::printf("[campaign_mix] %zu runs, median %.3fs, billed %lld, jain %.3f\n",
                wall_s_.size(), campaign_s,
                static_cast<long long>(last.server_billed),
                last.fairness.jain_served);
    if (!ctx_.options.trace) return;

    std::int64_t retries = 0, overloads = 0;
    for (const auto& s : last.sessions) {
      retries += s.retries;
      overloads += s.overloads;
    }
    MetricSheet& pl = ctx_.per_layer;
    pl.set("campaign.billed", static_cast<double>(last.server_billed), "count");
    pl.set("campaign.retries", static_cast<double>(retries), "count");
    pl.set("campaign.overloads", static_cast<double>(overloads), "count");
    pl.set("campaign.throttled", static_cast<double>(last.server.requests_throttled), "count");
    pl.set("campaign.faulted", static_cast<double>(last.server.faults_injected), "count");
    pl.set("campaign.jain_served", last.fairness.jain_served, "ratio");
    pl.set("campaign.server_p50_ms", last.server.p50_latency_ms, "ms");
    pl.set("campaign.server_p95_ms", last.server.p95_latency_ms, "ms");
    pl.set("campaign.batch_size_mean", last.server.mean_batch_size(), "count");
  }

 private:
  Context& ctx_;
  World& world_;
  const campaign::CampaignManifest manifest_;
  std::vector<double> wall_s_;
  std::vector<campaign::CampaignOutcome> outcomes_;
};

}  // namespace

std::unique_ptr<Stage> make_campaign_stage(Context& ctx) {
  return std::make_unique<CampaignStage>(ctx);
}

}  // namespace perfbench
