#pragma once

// ResilientHandle: the retry policy a query-budgeted attacker runs against a
// victim that times out, errors, drops responses, and pushes back on load.
// It wraps an AsyncBlackBoxHandle with
//   - a bounded submit deadline (no infinite backpressure block),
//   - a per-query timeout on the answer,
//   - capped exponential backoff with deterministic (seeded) jitter, which
//     honors server retry_after hints (throttles / admission rejections),
//   - a per-query attempt cap and a handle-wide total retry budget,
//   - an optional shared Pacer (one API key, many attack processes: every
//     submission first takes a token from the shared bucket); when the pacer
//     runs in AIMD mode the handle closes the loop, reporting every served
//     answer (additive increase) and every overload-family failure with its
//     retry_after hint (multiplicative decrease) back into the shared rate —
//     timeouts and drops carry no load signal and report nothing,
//   - an optional circuit breaker: after `circuit_threshold` consecutive
//     breaker-relevant failures (transient errors, drops, timeouts — NOT
//     overload pushback, which proves the victim is up) the circuit opens
//     and submissions fail fast with ServeError{kUnavailable} instead of
//     burning the retry budget; after a seeded-jittered cooldown one
//     half-open probe is let through, and its outcome closes or re-opens
//     the circuit,
// and keeps the accounting honest: every *accepted* submission bills one
// victim query (queries_billed()), including retries whose answers replace a
// lost one — exactly like a real black-box API charges per request, not per
// useful answer. Fail-fast rejections never reach the victim and bill
// nothing.
//
// Determinism contract: against a deterministic victim, every attempt for
// the same video returns the same list, so retries change only query counts
// and wall time — never the sequence of answers an attack observes. With a
// VirtualClock shared by handle, pacer, and server, the throttling/pacing
// decisions are deterministic too: fault-injected, throttled attack runs
// stay bitwise identical to fault-free unthrottled ones
// (tests/test_failure_modes.cpp).
//
// Thread-safe: multiple client threads may share one handle (the jitter
// stream, retry counters, budget, and circuit state are lock-protected).

#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <utility>

#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/async_handle.hpp"
#include "serve/clock.hpp"
#include "serve/errors.hpp"
#include "video/video.hpp"

namespace duo::serve {

struct RetryPolicy {
  // Maximum wait for queue space per submission attempt.
  std::chrono::milliseconds submit_deadline{250};
  // Maximum wait for the answer per attempt; past it the response is
  // declared lost and the query is resubmitted (the late answer, if any, is
  // discarded — the victim was still billed for it).
  std::chrono::milliseconds query_timeout{250};
  // Submission attempts per logical query (first try + retries).
  int max_attempts = 10;
  // Handle-wide retry budget across all queries; <0 = unlimited.
  std::int64_t retry_budget = -1;
  // Backoff before attempt k+1: min(cap, base * 2^(k-1)) * (1 + jitter * u),
  // u ~ U[0,1) from the seeded stream. A server retry_after hint raises the
  // wait to at least the hinted value.
  std::chrono::milliseconds backoff_base{1};
  std::chrono::milliseconds backoff_cap{32};
  double jitter = 0.25;
  std::uint64_t seed = 71;
  // Circuit breaker: consecutive breaker-relevant failures (transient /
  // drop / timeout; overload pushback excluded) that open the circuit.
  // 0 disables the breaker entirely.
  int circuit_threshold = 0;
  // Open → half-open probe delay, scaled by the same seeded jitter stream.
  double circuit_cooldown_ms = 100.0;
  // Crash-reconnect policy. ServeError{kConnectionLost} means the victim
  // process died (request lost in flight, or submitted while it is down) —
  // a third failure family beside faults and overload: it does not advance
  // the circuit breaker (the crash is expected to heal via restart, and an
  // open circuit would abort the attack), does not signal the pacer, and
  // does not consume per-query attempts or the retry budget. Instead the
  // handle rides out the downtime: up to `reconnect_attempts` consecutive
  // connection-lost failures per logical query (then kRetryExhausted), each
  // waiting `reconnect_wait_ms` of REAL wall time before resubmitting. The
  // real-time wait matters under a VirtualClock — the restart happens in
  // real time on another thread, and virtual sleeps complete instantly, so
  // a clocked wait would burn the whole reconnect allowance before the
  // server is back (precedent: ServerConfig::batch_timeout_ms also waits
  // real time). Defaults cover ~2 s of downtime.
  int reconnect_attempts = 8000;
  double reconnect_wait_ms = 0.25;
};

enum class CircuitState { kClosed, kOpen, kHalfOpen };

class ResilientHandle;

// A query in flight through the resilient policy. submit() launches the
// first attempt immediately (so callers can pipeline several); get() waits,
// retrying through the policy until an answer lands or the policy gives up
// with ServeError{kRetryExhausted} (or a fatal / kUnavailable error
// surfaces).
class PendingRetrieval {
 public:
  metrics::RetrievalList get();

 private:
  friend class ResilientHandle;
  PendingRetrieval(ResilientHandle& handle, video::Video video, std::size_t m,
                   SubmitOutcome first, bool probe)
      : handle_(&handle),
        video_(std::move(video)),
        m_(m),
        future_(std::move(first.future)),
        accepted_(first.accepted),
        probe_(probe) {}

  ResilientHandle* handle_;
  video::Video video_;  // kept for resubmission
  std::size_t m_;
  std::future<metrics::RetrievalList> future_;
  bool accepted_;
  bool probe_;  // this attempt is the half-open circuit probe
};

class ResilientHandle {
 public:
  // `pacer`, when set, is shared across handles: every submission (first
  // try and retries alike) takes one token before reaching the server.
  // `clock` drives backoff sleeps and circuit-breaker timing (null = wall
  // time); hand the same VirtualClock to handle, pacer, and server for
  // fully virtualized, deterministic runs.
  explicit ResilientHandle(AsyncBlackBoxHandle& inner, RetryPolicy policy = {},
                           std::shared_ptr<Pacer> pacer = nullptr,
                           std::shared_ptr<Clock> clock = nullptr);

  ResilientHandle(const ResilientHandle&) = delete;
  ResilientHandle& operator=(const ResilientHandle&) = delete;

  // Synchronous R^m(v) with retries. Throws ServeError only when the policy
  // is out of road (fatal error, shutdown, retry budget exhausted, circuit
  // open → kUnavailable).
  metrics::RetrievalList retrieve(const video::Video& v, std::size_t m);

  // Asynchronous variant for pipelined attacks: the first attempt is
  // submitted before returning; retries happen inside get(). A fail-fast
  // (open circuit) does NOT throw here — the kUnavailable error is set on
  // the pending future so it surfaces inside get(), where pipelined drivers
  // run their checkpoint-on-fatal path.
  PendingRetrieval submit(video::Video v, std::size_t m);

  // Adapter for retrieval::BlackBoxHandle's type-erased constructor, so the
  // serial attack drivers run unchanged over a faulty victim. Note the
  // BlackBoxHandle built on this counts *logical* queries (one per
  // retrieve); queries_billed() stays the honest victim-side count.
  std::function<metrics::RetrievalList(const video::Video&, std::size_t)>
  retrieve_fn() {
    return [this](const video::Video& v, std::size_t m) {
      return retrieve(v, m);
    };
  }

  // Victim-side billing: accepted submissions, retries included.
  std::int64_t queries_billed() const noexcept { return inner_.query_count(); }
  // Alias so ResilientHandle satisfies the same handle concept as
  // AsyncBlackBoxHandle (attack drivers template over query_count()).
  std::int64_t query_count() const noexcept { return queries_billed(); }
  // Retry attempts performed / retryable failures observed so far.
  std::int64_t retries() const;
  std::int64_t faults_seen() const;
  // Overload-family failures (throttle / reject / shed / expiry) — a subset
  // of faults_seen that never feeds the circuit breaker.
  std::int64_t overloads_seen() const;
  // Connection-lost failures survived (crash casualties + submits bounced
  // off a down server) — a subset of faults_seen; each one triggered a
  // reconnect resubmission. These do not count as retries().
  std::int64_t connection_losses() const;
  // Circuit breaker observability.
  std::int64_t circuit_opens() const;
  std::int64_t fast_failures() const;  // submissions refused while open
  CircuitState circuit_state() const;

  const RetryPolicy& policy() const noexcept { return policy_; }
  AsyncBlackBoxHandle& inner() noexcept { return inner_; }
  const std::shared_ptr<Pacer>& pacer() const noexcept { return pacer_; }

 private:
  friend class PendingRetrieval;

  enum class Gate { kAllow, kAllowProbe, kFailFast };
  struct GuardedSubmit {
    SubmitOutcome out;
    bool probe = false;
  };

  // circuit gate → pacer token → bounded submit. On an open circuit the
  // outcome is a fail-fast: accepted=false and the future already holds
  // ServeError{kUnavailable}; nothing reached the victim.
  GuardedSubmit guarded_submit(const video::Video& v, std::size_t m);
  Gate circuit_gate();

  // Waits out `future` (first attempt already submitted iff `accepted`),
  // retrying per the policy. `v` is the request payload for resubmission.
  metrics::RetrievalList await_with_retry(
      std::future<metrics::RetrievalList> future, bool accepted, bool probe,
      const video::Video& v, std::size_t m);

  // Classification of a retryable failure: the server's retry_after hint
  // (0 if none) and whether it was a connection loss (crash family — takes
  // the reconnect path instead of the attempt-counted retry path).
  struct FailureInfo {
    double retry_after_ms = 0.0;
    bool connection_lost = false;
  };

  // Classifies a failed attempt's exception: returns the FailureInfo when
  // the failure is retryable (counting it), rethrows otherwise.
  FailureInfo classify_failure(std::exception_ptr error, bool was_probe);

  // Records one retryable failure. `overload` failures release a probe
  // without reopening (the victim is up, just busy); breaker-relevant ones
  // advance the consecutive-failure count and can open the circuit.
  void note_retryable(bool overload, bool was_probe);
  // Records one connection-lost failure: counted in faults_seen and
  // connection_losses, never advances the breaker (a half-open probe just
  // releases its slot, like overload pushback).
  void note_connection_lost(bool was_probe);
  void note_success(bool was_probe);
  void release_probe();  // frees the half-open slot without counting a fault
  void open_circuit_locked();  // requires mutex_ held

  // Consumes one unit of retry budget; throws kRetryExhausted when dry.
  void consume_budget(bool any_billed);
  std::chrono::duration<double, std::milli> next_backoff(int attempt);

  AsyncBlackBoxHandle& inner_;
  RetryPolicy policy_;
  std::shared_ptr<Pacer> pacer_;  // may be null
  std::shared_ptr<Clock> clock_;
  mutable std::mutex mutex_;
  Rng jitter_rng_;
  std::int64_t retries_ = 0;
  std::int64_t faults_seen_ = 0;
  std::int64_t overloads_seen_ = 0;
  std::int64_t connection_losses_ = 0;
  std::int64_t budget_left_ = 0;  // ignored when policy_.retry_budget < 0
  // Circuit breaker state (all under mutex_).
  CircuitState circuit_ = CircuitState::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  double opened_at_ms_ = 0.0;
  double cooldown_ms_ = 0.0;  // jittered at each open
  std::int64_t circuit_opens_ = 0;
  std::int64_t fast_failures_ = 0;
};

}  // namespace duo::serve
