#include "attack/objective.hpp"

namespace duo::attack {

double t_loss_from_list(const metrics::RetrievalList& list_adv,
                        const ObjectiveContext& ctx) {
  if (ctx.untargeted) {
    return metrics::ndcg_similarity(list_adv, ctx.list_v) + ctx.eta;
  }
  return metrics::ndcg_similarity(list_adv, ctx.list_v) -
         metrics::ndcg_similarity(list_adv, ctx.list_vt) + ctx.eta;
}

double t_loss(retrieval::BlackBoxHandle& victim, const video::Video& v_adv,
              const ObjectiveContext& ctx) {
  return t_loss_from_list(victim.retrieve(v_adv, ctx.m), ctx);
}

}  // namespace duo::attack
