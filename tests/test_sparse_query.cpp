#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "attack/sparse_query.hpp"
#include "baselines/vanilla.hpp"
#include "fixtures.hpp"
#include "serve/async_handle.hpp"
#include "serve/resilient.hpp"
#include "serve/server.hpp"

namespace duo::attack {
namespace {

using duo::testing::TinyWorld;

Perturbation small_support(const video::Video& v, std::uint64_t seed,
                           float theta = 10.0f) {
  Rng rng(seed);
  Perturbation p = baselines::random_support(v.geometry(), 150, 3, rng);
  // Give θ some signal on the support.
  Tensor noise =
      Tensor::uniform(v.geometry().tensor_shape(), -theta, theta, rng);
  p.magnitude() = noise * p.pixel_mask() * p.frame_mask();
  return p;
}

// Straight-line Algorithm 2, written apart from the library loop as its
// reference: step plan, deck shuffle, ±ε with CLIP, quantized queries, no
// checkpointing and no pending results. Counts its own queries, and the
// candidates skipped because CLIP left them unchanged.
struct OracleRun {
  std::vector<double> t_history;
  Tensor v_adv;
  std::int64_t queries = 0;
  std::int64_t skipped = 0;
};

OracleRun straight_line_alg2(const video::Video& v, const Perturbation& p,
                             retrieval::RetrievalSystem& victim,
                             const ObjectiveContext& ctx,
                             const SparseQueryConfig& cfg) {
  OracleRun out;
  const auto rounded = [](Tensor x) {
    for (auto& e : x.flat()) e = std::round(e);
    return x;
  };
  const auto t_of = [&](const Tensor& x) {
    ++out.queries;
    const video::Video q(rounded(x), v.geometry(), v.label(), v.id());
    return t_loss_from_list(victim.retrieve(q, ctx.m), ctx);
  };

  const Tensor phi = p.combined();
  const Tensor mask = p.pixel_mask() * p.frame_mask();
  std::vector<std::int64_t> support;
  double theta_mass = 0.0;
  for (std::int64_t i = 0; i < mask.size(); ++i) {
    if (mask[i] > 0.5f) {
      support.push_back(i);
      theta_mass += std::fabs(phi[i]);
    }
  }
  const float theta_mean = static_cast<float>(theta_mass / support.size());
  const float eps =
      std::max(1.0f, theta_mean >= 1.0f ? theta_mean : cfg.tau * 0.25f);
  const std::size_t group =
      cfg.coords_per_step > 0
          ? static_cast<std::size_t>(cfg.coords_per_step)
          : std::clamp<std::size_t>(support.size() / 12, 1, 64);

  Tensor x = p.apply_to(v).data();
  double t = t_of(x);
  out.t_history.push_back(t);
  Rng rng(cfg.seed);
  std::vector<std::int64_t> deck = support;
  rng.shuffle(deck);
  std::size_t pos = 0;
  int stall = 0;
  for (int kappa = 1; kappa < cfg.iter_numQ &&
                      !(cfg.patience > 0 && stall >= cfg.patience);
       ++kappa) {
    std::vector<std::int64_t> coords;
    while (coords.size() < group) {
      if (pos == deck.size()) {
        rng.shuffle(deck);
        pos = 0;
      }
      coords.push_back(deck[pos++]);
    }
    bool accepted = false;
    for (const float xi : {eps, -eps}) {
      Tensor cand = x;
      for (const auto c : coords) {
        const float lo = std::max(0.0f, v.data()[c] - cfg.tau);
        const float hi = std::min(255.0f, v.data()[c] + cfg.tau);
        cand[c] = std::clamp(x[c] + xi, lo, hi);
      }
      if (cand.allclose(x, 0.0f)) {
        ++out.skipped;
        continue;
      }
      const double t_cand = t_of(cand);
      if (t_cand < t) {
        t = t_cand;
        x = std::move(cand);
        accepted = true;
        break;
      }
    }
    out.t_history.push_back(t);
    stall = accepted ? 0 : stall + 1;
  }
  out.v_adv = rounded(std::move(x));
  return out;
}

TEST(SparseQuery, THistoryIsMonotoneNonIncreasing) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[14];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 40;
  cfg.tau = 30.0f;
  cfg.m = 8;
  const auto result =
      sparse_query(v, small_support(v, 3), handle, ctx, cfg);
  ASSERT_GE(result.t_history.size(), 2u);
  for (std::size_t i = 1; i < result.t_history.size(); ++i) {
    EXPECT_LE(result.t_history[i], result.t_history[i - 1] + 1e-12);
  }
  EXPECT_DOUBLE_EQ(result.t_history.back(), result.final_t);
}

TEST(SparseQuery, NeverPerturbsOutsideSupport) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[2];
  const auto& vt = w.dataset.train[16];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  const Perturbation p = small_support(v, 4);
  SparseQueryConfig cfg;
  cfg.iter_numQ = 30;
  cfg.tau = 30.0f;
  cfg.m = 8;
  const auto result = sparse_query(v, p, handle, ctx, cfg);

  const Tensor support = p.pixel_mask() * p.frame_mask();
  const Tensor delta = result.v_adv.data() - v.data();
  for (std::int64_t i = 0; i < delta.size(); ++i) {
    if (support[i] < 0.5f) {
      EXPECT_FLOAT_EQ(delta[i], 0.0f) << "coordinate " << i;
    }
  }
}

TEST(SparseQuery, RespectsLinfBudgetAndPixelRange) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[3];
  const auto& vt = w.dataset.train[17];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 50;
  cfg.tau = 12.0f;
  cfg.m = 8;
  const auto result = sparse_query(v, small_support(v, 5, 12.0f), handle, ctx, cfg);

  const Tensor delta = result.v_adv.data() - v.data();
  // Quantization rounds to the nearest integer, so allow +0.5.
  EXPECT_LE(delta.norm_linf(), cfg.tau + 0.5f);
  EXPECT_GE(result.v_adv.data().min(), 0.0f);
  EXPECT_LE(result.v_adv.data().max(), 255.0f);
}

TEST(SparseQuery, CountsOneQueryPerEvaluation) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[4];
  const auto& vt = w.dataset.train[19];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);
  const std::int64_t before = handle.query_count();

  SparseQueryConfig cfg;
  cfg.iter_numQ = 20;
  cfg.m = 8;
  const auto result = sparse_query(v, small_support(v, 6), handle, ctx, cfg);
  EXPECT_EQ(result.queries_spent, handle.query_count() - before);
  // At most 2 candidate evaluations per iteration + the initial one.
  EXPECT_LE(result.queries_spent, 2 * cfg.iter_numQ + 1);
  EXPECT_GE(result.queries_spent, cfg.iter_numQ / 2);
}

TEST(SparseQuery, EmptySupportReturnsInitialVideo) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[5];
  const auto& vt = w.dataset.train[21];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  Perturbation p(v.geometry());
  p.pixel_mask().fill(0.0f);  // nothing selectable
  SparseQueryConfig cfg;
  cfg.iter_numQ = 10;
  const auto result = sparse_query(v, p, handle, ctx, cfg);
  EXPECT_TRUE(result.v_adv.data().allclose(v.data()));
  EXPECT_EQ(result.queries_spent, 1);  // only the initial T evaluation
}

TEST(SparseQuery, PatienceStopsEarly) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[6];
  const auto& vt = w.dataset.train[23];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig stop_cfg;
  stop_cfg.iter_numQ = 200;
  stop_cfg.patience = 5;
  stop_cfg.m = 8;
  const auto result = sparse_query(v, small_support(v, 7), handle, ctx, stop_cfg);
  EXPECT_LT(static_cast<int>(result.t_history.size()), stop_cfg.iter_numQ);
}

// The incremental quantized working copy must behave exactly like the old
// full `quantized(v_adv)` per query: every candidate the victim sees is
// integral, re-quantizing the final video is a no-op, and the trajectory is
// reproducible run-to-run.
TEST(SparseQuery, EveryVictimQueryIsQuantized) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[8];
  const auto& vt = w.dataset.train[18];

  std::int64_t checked = 0;
  retrieval::BlackBoxHandle handle(
      [&](const video::Video& q, std::size_t m) {
        for (const float x : q.data().flat()) {
          EXPECT_EQ(x, std::round(x)) << "victim saw a non-integral pixel";
        }
        ++checked;
        return w.victim->retrieve(q, m);
      });
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 25;
  cfg.tau = 30.0f;
  cfg.m = 8;
  const auto result = sparse_query(v, small_support(v, 9), handle, ctx, cfg);
  EXPECT_GT(checked, 2);  // context fetches + per-step candidates

  // The returned video is already quantized: re-rounding changes nothing.
  for (const float x : result.v_adv.data().flat()) {
    EXPECT_EQ(x, std::round(x));
  }
}

TEST(SparseQuery, TrajectoryIsReproducible) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[9];
  const auto& vt = w.dataset.train[20];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 30;
  cfg.tau = 20.0f;
  cfg.m = 8;
  const auto a = sparse_query(v, small_support(v, 10), handle, ctx, cfg);
  const auto b = sparse_query(v, small_support(v, 10), handle, ctx, cfg);
  ASSERT_EQ(a.t_history.size(), b.t_history.size());
  for (std::size_t i = 0; i < a.t_history.size(); ++i) {
    EXPECT_EQ(a.t_history[i], b.t_history[i]) << "step " << i;
  }
  EXPECT_TRUE(a.v_adv.data().allclose(b.v_adv.data(), 0.0f));
  EXPECT_EQ(a.queries_spent, b.queries_spent);
}

// Pipelined mode drives the victim through the serve layer with both ±ε
// candidates in flight, but must replay the serial acceptance sequence
// exactly: same t_history, bitwise-identical final video. Its query count
// may only exceed the serial one (speculative forwards are counted).
TEST(SparseQueryPipelined, MatchesSerialBitwise) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[11];
  const auto& vt = w.dataset.train[24];
  const Perturbation p = small_support(v, 12);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 30;
  cfg.tau = 30.0f;
  cfg.m = 8;

  // Serial reference first — the server must not own the extractor yet.
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);
  const auto serial = sparse_query(v, p, handle, ctx, cfg);

  for (const std::size_t max_batch : {1u, 4u}) {
    serve::ServerConfig scfg;
    scfg.max_batch = max_batch;
    serve::RetrievalServer server(*w.victim, scfg);
    serve::AsyncBlackBoxHandle async(server);
    const auto actx = make_objective_context(async, v, vt, 8);
    EXPECT_EQ(actx.list_v, ctx.list_v);
    EXPECT_EQ(actx.list_vt, ctx.list_vt);

    const auto piped = sparse_query_pipelined(v, p, async, actx, cfg);
    server.shutdown();

    ASSERT_EQ(piped.t_history.size(), serial.t_history.size())
        << "max_batch=" << max_batch;
    for (std::size_t i = 0; i < serial.t_history.size(); ++i) {
      EXPECT_EQ(piped.t_history[i], serial.t_history[i])
          << "max_batch=" << max_batch << " step " << i;
    }
    EXPECT_EQ(piped.final_t, serial.final_t);
    ASSERT_EQ(piped.v_adv.data().size(), serial.v_adv.data().size());
    for (std::int64_t i = 0; i < serial.v_adv.data().size(); ++i) {
      ASSERT_EQ(piped.v_adv.data()[i], serial.v_adv.data()[i])
          << "max_batch=" << max_batch << " flat index " << i;
    }
    // Honest accounting: speculation can only add queries, and the async
    // handle's count is the ground truth for queries_spent.
    EXPECT_GE(piped.queries_spent, serial.queries_spent);
    EXPECT_EQ(piped.queries_spent + 2 /*context fetches*/,
              async.query_count());
  }
}

// The one Algorithm 2 loop against the straight-line reference. Over a
// blocking BlackBoxHandle the loop must take exactly the reference's steps
// and bill exactly its queries: an unread −ε candidate is never sent. The
// second config starts every support pixel on its upper τ bound, so +ε
// clips to "unchanged" and the skip path runs. Through the resilient client
// the outcome is the same; speculation may only add queries.
TEST(SparseQuery, MatchesStraightLineOracle) {
  auto& w = TinyWorld::mutable_instance();
  const auto& vt = w.dataset.train[24];

  // Integral pixels put v + τ exactly on a reachable value.
  const video::Video& raw = w.dataset.train[20];
  Tensor integral = raw.data();
  for (auto& x : integral.flat()) x = std::round(x);
  const video::Video v(std::move(integral), raw.geometry(), raw.label(),
                       raw.id());

  SparseQueryConfig noisy;
  noisy.iter_numQ = 40;
  noisy.tau = 30.0f;
  noisy.m = 8;
  SparseQueryConfig on_bound = noisy;
  on_bound.tau = 4.0f;
  Perturbation at_bound = small_support(v, 13);
  at_bound.magnitude() =
      at_bound.pixel_mask() * at_bound.frame_mask() * on_bound.tau;

  struct Case {
    const char* name;
    Perturbation p;
    SparseQueryConfig cfg;
    bool skips;
  };
  // θ up to ±40 moves the retrieval list, so some steps are accepted.
  const Case cases[] = {{"noisy", small_support(v, 12, 40.0f), noisy, false},
                        {"on_bound", at_bound, on_bound, true}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    retrieval::BlackBoxHandle handle(*w.victim);
    const auto ctx = make_objective_context(handle, v, vt, 8);
    const OracleRun want = straight_line_alg2(v, c.p, *w.victim, ctx, c.cfg);
    if (c.skips) {
      EXPECT_GT(want.skipped, 0);
    }

    const auto got = sparse_query(v, c.p, handle, ctx, c.cfg);
    EXPECT_EQ(got.t_history, want.t_history);
    EXPECT_EQ(got.final_t, want.t_history.back());
    ASSERT_EQ(got.v_adv.data().size(), want.v_adv.size());
    for (std::int64_t i = 0; i < want.v_adv.size(); ++i) {
      ASSERT_EQ(got.v_adv.data()[i], want.v_adv[i]) << "flat index " << i;
    }
    EXPECT_EQ(got.queries_spent, want.queries);

    serve::RetrievalServer server(*w.victim);
    serve::AsyncBlackBoxHandle async(server);
    serve::ResilientHandle resilient(async);
    const auto piped = sparse_query_pipelined(v, c.p, resilient, ctx, c.cfg);
    server.shutdown();
    EXPECT_EQ(piped.t_history, want.t_history);
    EXPECT_TRUE(piped.v_adv.data().allclose(want.v_adv, 0.0f));
    EXPECT_GE(piped.queries_spent, want.queries);
  }
}

TEST(SparseQueryPipelined, EmptySupportSpendsOneQuery) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[12];
  const auto& vt = w.dataset.train[26];

  serve::RetrievalServer server(*w.victim);
  serve::AsyncBlackBoxHandle async(server);
  const auto ctx = make_objective_context(async, v, vt, 8);

  Perturbation p(v.geometry());
  p.pixel_mask().fill(0.0f);
  SparseQueryConfig cfg;
  cfg.iter_numQ = 10;
  const auto result = sparse_query_pipelined(v, p, async, ctx, cfg);
  server.shutdown();
  EXPECT_TRUE(result.v_adv.data().allclose(v.data()));
  EXPECT_EQ(result.queries_spent, 1);
}

TEST(ObjectiveContext, TLossUsesMarginAndSimilarity) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[7];
  const auto& vt = w.dataset.train[25];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8, 1.0);

  // T(v) should be high (list matches R(v) perfectly, differs from R(v_t));
  // T(v_t) should be low.
  const double t_self = t_loss(handle, v, ctx);
  const double t_target = t_loss(handle, vt, ctx);
  EXPECT_GT(t_self, t_target);

  // From-list variant agrees with the queried variant.
  const auto list = w.victim->retrieve(v, 8);
  EXPECT_DOUBLE_EQ(t_loss_from_list(list, ctx), t_self);
}

}  // namespace
}  // namespace duo::attack
