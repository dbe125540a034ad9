#pragma once

// The SparseQuery ranking objective (Eq. 2):
//   T(v_adv, v, v_t) = H(R^m(v_adv), R^m(v)) − H(R^m(v_adv), R^m(v_t)) + η
// Decreasing T pulls the adversarial retrieval list away from the original
// video's list and toward the target's. H is the NDCG-style co-occurrence
// similarity (metrics/metrics.hpp).

#include "metrics/metrics.hpp"
#include "retrieval/system.hpp"
#include "video/video.hpp"

namespace duo::attack {

struct ObjectiveContext {
  metrics::RetrievalList list_v;   // R^m(v), fetched once
  metrics::RetrievalList list_vt;  // R^m(v_t), fetched once
  std::size_t m = 10;
  double eta = 1.0;  // margin constant η
  // Untargeted variant (§I): drop the target term; T = H(R(v_adv), R(v)) + η
  // simply pushes the adversarial list away from the original one.
  bool untargeted = false;
};

// Fetch the two reference lists (costs two black-box queries, v first).
// Defined in attack/sparse_query.cpp with its async twins: one body over the
// handles' shared submit()/get() shape.
ObjectiveContext make_objective_context(retrieval::BlackBoxHandle& victim,
                                        const video::Video& v,
                                        const video::Video& v_t, std::size_t m,
                                        double eta = 1.0);

// Evaluate T for a candidate adversarial video (costs one query).
double t_loss(retrieval::BlackBoxHandle& victim, const video::Video& v_adv,
              const ObjectiveContext& ctx);

// T from an already-retrieved list (no query).
double t_loss_from_list(const metrics::RetrievalList& list_adv,
                        const ObjectiveContext& ctx);

}  // namespace duo::attack
