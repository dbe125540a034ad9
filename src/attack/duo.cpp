#include "attack/duo.hpp"

#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>

#include "attack/checkpoint.hpp"
#include "models/serialization.hpp"

namespace duo::attack {

DuoAttack::DuoAttack(models::FeatureExtractor& surrogate, DuoConfig config)
    : surrogate_(&surrogate),
      config_(std::move(config)),
      name_((config_.goal == AttackGoal::kTargeted ? "DUO-" : "DUO-U-") +
            surrogate.name()) {
  config_.transfer.goal = config_.goal;
}

AttackOutcome DuoAttack::run(const video::Video& v, const video::Video& v_t,
                             retrieval::BlackBoxHandle& victim) {
  return run_impl(v, v_t, victim);
}

AttackOutcome DuoAttack::run(const video::Video& v, const video::Video& v_t,
                             serve::ResilientHandle& victim) {
  return run_impl(v, v_t, victim);
}

// The pipeline body, shared by both handle types. Both run the one
// Algorithm 2 loop (attack/sparse_query.hpp); the handle only decides how
// its queries travel: a plain BlackBoxHandle submits lazily (serial query
// order), a ResilientHandle keeps both candidates in flight through the
// retry policy. Both expose query_count() with victim-side billing
// semantics, so the accounting below is identical.
template <typename Handle>
AttackOutcome DuoAttack::run_impl(const video::Video& v,
                                  const video::Video& v_t, Handle& victim) {
  const std::int64_t queries_before = victim.query_count();

  AttackOutcome out;
  video::Video v_cur = v;  // base video of the current outer iteration
  std::optional<Perturbation> init;
  int start_h = 0;

  // Query accounting across processes: queries_total carries the billed
  // count from a restored checkpoint, this process's objective-context
  // fetches (measured off the victim counter), and each executed round's
  // queries_spent — which itself carries the mid-round checkpointed count
  // when the round resumed. The sum equals the true victim-side billing of
  // every process that contributed to the attack.
  const bool checkpointing = !config_.checkpoint_path.empty();
  const std::uint64_t source_hash =
      checkpointing ? models::io::fnv1a(v.data()) : 0;
  std::int64_t queries_restored = 0;

  // The checkpoint is consulted BEFORE the objective-context fetch: a
  // matching one restores R^m(v) / R^m(v_t) directly, so resuming after a
  // fatal (even one during round 0's sparse_transfer, before any query
  // attack progress) costs zero context re-fetch queries.
  std::optional<ObjectiveContext> restored_ctx;
  if (checkpointing && config_.resume) {
    DuoCheckpoint ck;
    if (load_checkpoint(ck, config_.checkpoint_path) &&
        ck.geometry == v.geometry() && ck.source_hash == source_hash &&
        ck.iter_numH == config_.iter_numH) {
      start_h = static_cast<int>(ck.next_round);
      out.t_history = std::move(ck.t_history);
      queries_restored = ck.queries;
      v_cur = video::Video(std::move(ck.v_cur), v.geometry(), v.label(),
                           v.id());
      if (ck.has_init) {
        Perturbation restored(v.geometry());
        restored.pixel_mask() = std::move(ck.pixel_mask);
        restored.frame_mask() = std::move(ck.frame_mask);
        init = std::move(restored);
      }
      if (ck.has_ctx) {
        ObjectiveContext ctx;
        ctx.list_v = std::move(ck.list_v);
        ctx.list_vt = std::move(ck.list_vt);
        ctx.m = config_.m;
        ctx.eta = config_.eta;
        restored_ctx = std::move(ctx);
      }
    }
  }

  ObjectiveContext ctx =
      restored_ctx.has_value()
          ? std::move(*restored_ctx)
          : make_objective_context(victim, v, v_t, config_.m, config_.eta);
  ctx.untargeted = config_.goal == AttackGoal::kUntargeted;
  std::int64_t queries_total =
      queries_restored + (victim.query_count() - queries_before);

  for (int h = start_h; h < config_.iter_numH; ++h) {
    if (checkpointing) {
      DuoCheckpoint ck;
      ck.geometry = v.geometry();
      ck.source_hash = source_hash;
      ck.iter_numH = config_.iter_numH;
      ck.next_round = h;
      ck.t_history = out.t_history;
      ck.queries = queries_total;
      ck.has_ctx = true;
      ck.list_v = ctx.list_v;
      ck.list_vt = ctx.list_vt;
      ck.v_cur = v_cur.data();
      ck.has_init = init.has_value();
      if (init) {
        ck.pixel_mask = init->pixel_mask();
        ck.frame_mask = init->frame_mask();
      }
      save_checkpoint(ck, config_.checkpoint_path);
    }

    const SparseTransferResult st =
        sparse_transfer(v_cur, v_t, *surrogate_, config_.transfer, init);

    SparseQueryConfig qcfg = config_.query;
    qcfg.tau = config_.transfer.tau;
    qcfg.m = config_.m;
    qcfg.eta = config_.eta;
    qcfg.seed = config_.query.seed + static_cast<std::uint64_t>(h) * 7919;
    if (checkpointing) {
      qcfg.checkpoint_path =
          config_.checkpoint_path + ".h" + std::to_string(h);
      qcfg.resume = config_.resume;
      // Each round's file is garbage-collected as soon as that round
      // finishes cleanly; the outer file below covers the loop itself.
      qcfg.remove_on_success = config_.remove_on_success;
    }
    const SparseQueryResult sq = [&] {
      if constexpr (std::is_same_v<Handle, serve::ResilientHandle>) {
        return sparse_query_pipelined(v_cur, st.perturbation, victim, ctx,
                                      qcfg);
      } else {
        return sparse_query(v_cur, st.perturbation, victim, ctx, qcfg);
      }
    }();
    queries_total += sq.queries_spent;

    out.t_history.insert(out.t_history.end(), sq.t_history.begin(),
                         sq.t_history.end());

    // Re-initialize for the next round: v ← v_adv, and {I, F} seed the next
    // SparseTransfer. θ restarts at 0 because v_cur has already absorbed the
    // previous perturbation — carrying θ over would apply it twice.
    v_cur = sq.v_adv;
    Perturbation next(v.geometry());
    next.pixel_mask() = st.perturbation.pixel_mask();
    next.frame_mask() = st.perturbation.frame_mask();
    init = std::move(next);
  }

  if (checkpointing && config_.remove_on_success) {
    // Clean finish: drop the outer checkpoint and (defensively — a crashed
    // earlier process may have left files this run resumed past) every
    // per-round file. Interrupted runs never reach this point.
    std::remove(config_.checkpoint_path.c_str());
    for (int h = 0; h < config_.iter_numH; ++h) {
      std::remove(
          (config_.checkpoint_path + ".h" + std::to_string(h)).c_str());
    }
  }

  out.adversarial = std::move(v_cur);
  out.perturbation = out.adversarial.data() - v.data();
  out.queries = queries_total;
  return out;
}

}  // namespace duo::attack
