#pragma once

// SparseQuery (Algorithm 2): SimBA-style query attack restricted to the
// support of φ = I ⊙ F ⊙ θ. Each iteration samples a Cartesian-basis
// direction q from the support without replacement (Eq. 4 zeroes directions
// outside the support) and tries ±ε steps, keeping whichever decreases the
// ranking loss T (Eq. 2 / Eq. 3).

#include <cstdint>
#include <string>
#include <vector>

#include "attack/objective.hpp"
#include "attack/perturbation.hpp"
#include "retrieval/system.hpp"
#include "serve/async_handle.hpp"
#include "serve/resilient.hpp"
#include "video/video.hpp"

namespace duo::attack {

struct SparseQueryConfig {
  int iter_numQ = 300;  // paper default 1,000; quick-scale default 300
  float tau = 30.0f;    // keeps ‖v_adv − v‖∞ ≤ τ (matches Eq. 1)
  std::size_t m = 10;
  double eta = 1.0;
  std::uint64_t seed = 17;
  // Coordinates flipped together per query step. The paper samples single
  // Cartesian basis vectors (= 1); at miniature geometry a one-pixel step
  // cannot move the feature across any ranking boundary, so the bench scale
  // groups several support coordinates into one step (0 = adaptive:
  // support/12, clamped to [1, 64]). Grouped steps still satisfy Eq. 4 —
  // every touched coordinate lies in the support of I⊙F⊙θ.
  int coords_per_step = 0;
  // Stop early after this many consecutive rejected iterations (0 = never).
  int patience = 0;

  // Checkpoint/resume (attack/checkpoint.hpp). With a non-empty
  // checkpoint_path the loop atomically saves its full state every
  // checkpoint_every iterations and — crucially — right before rethrowing a
  // fatal victim error, so no billed query is ever more than one iteration
  // from a durable record. With resume = true a matching checkpoint (same
  // geometry, seed, support size, and source-video hash) is restored and the
  // run continues from it; a missing or mismatched checkpoint falls back to
  // a fresh start. A resumed run finishes with the same final video and
  // t_history as an uninterrupted one, and queries_spent counts the billed
  // queries of every contributing process.
  std::string checkpoint_path;
  int checkpoint_every = 25;
  bool resume = false;
  // Checkpoint GC: delete the checkpoint file after a clean finish, so long
  // campaigns do not accumulate stale state. Interrupted runs (fatal victim
  // error, process kill) always keep theirs — the file is removed only on
  // the successful-return path.
  bool remove_on_success = false;
};

struct SparseQueryResult {
  video::Video v_adv;
  std::vector<double> t_history;  // T after each iteration (Fig. 5 series)
  std::int64_t queries_spent = 0;
  double final_t = 0.0;
};

// Algorithm 2 has one loop body; the handle decides how its queries travel.
// Each step submits its +ε and −ε candidates, then reads +ε and reads −ε
// only if +ε was rejected (Alg. 2 line 11). For the same seed and config the
// accepted-perturbation sequence — t_history and the final v_adv — is
// therefore bitwise identical over every handle; only queries_spent (the
// handle's victim-side billing) differs.

// Over a blocking BlackBoxHandle, submission is lazy: a candidate is sent
// and billed only when its answer is read, so the unread −ε candidate costs
// nothing and the victim sees exactly the serial query sequence. Starts from
// v_adv⁰ = v + φ; `ctx` carries the reference lists R^m(v) and R^m(v_t).
SparseQueryResult sparse_query(const video::Video& v,
                               const Perturbation& perturbation,
                               retrieval::BlackBoxHandle& victim,
                               const ObjectiveContext& ctx,
                               const SparseQueryConfig& config);

// Over an asynchronously served victim, submission is in flight: both
// candidate forwards run while the step does its bookkeeping, hiding victim
// latency. A speculative −ε forward counts even when +ε is accepted and its
// answer goes unused, so queries_spent is ≥ the serial count.
SparseQueryResult sparse_query_pipelined(const video::Video& v,
                                         const Perturbation& perturbation,
                                         serve::AsyncBlackBoxHandle& victim,
                                         const ObjectiveContext& ctx,
                                         const SparseQueryConfig& config);

// In flight through the retrying client policy (serve/resilient.hpp):
// transient victim faults are absorbed by retries — against a deterministic
// victim the answers, and therefore the final video, stay bitwise identical
// to a fault-free run; only queries_spent (retries included) and wall time
// grow. Fatal faults propagate as serve::ServeError after a best-effort
// checkpoint (when configured).
SparseQueryResult sparse_query_pipelined(const video::Video& v,
                                         const Perturbation& perturbation,
                                         serve::ResilientHandle& victim,
                                         const ObjectiveContext& ctx,
                                         const SparseQueryConfig& config);

// Async twins of make_objective_context (attack/objective.hpp): R^m(v) and
// R^m(v_t) with both queries in flight at once.
ObjectiveContext make_objective_context(serve::AsyncBlackBoxHandle& victim,
                                        const video::Video& v,
                                        const video::Video& v_t, std::size_t m,
                                        double eta = 1.0);

ObjectiveContext make_objective_context(serve::ResilientHandle& victim,
                                        const video::Video& v,
                                        const video::Video& v_t, std::size_t m,
                                        double eta = 1.0);

}  // namespace duo::attack
