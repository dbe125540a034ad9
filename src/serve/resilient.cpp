#include "serve/resilient.hpp"

#include <algorithm>
#include <thread>

#include "common/check.hpp"

namespace duo::serve {

metrics::RetrievalList PendingRetrieval::get() {
  return handle_->await_with_retry(std::move(future_), accepted_, probe_,
                                   video_, m_);
}

ResilientHandle::ResilientHandle(AsyncBlackBoxHandle& inner,
                                 RetryPolicy policy,
                                 std::shared_ptr<Pacer> pacer,
                                 std::shared_ptr<Clock> clock)
    : inner_(inner),
      policy_(policy),
      pacer_(std::move(pacer)),
      clock_(ensure_clock(std::move(clock))),
      jitter_rng_(policy.seed),
      budget_left_(policy.retry_budget) {
  DUO_CHECK_MSG(policy_.max_attempts >= 1,
                "ResilientHandle: max_attempts < 1");
  DUO_CHECK_MSG(policy_.jitter >= 0.0, "ResilientHandle: negative jitter");
  DUO_CHECK_MSG(policy_.circuit_threshold >= 0,
                "ResilientHandle: negative circuit_threshold");
  DUO_CHECK_MSG(policy_.circuit_cooldown_ms >= 0.0,
                "ResilientHandle: negative circuit_cooldown_ms");
  DUO_CHECK_MSG(policy_.reconnect_attempts >= 0,
                "ResilientHandle: negative reconnect_attempts");
  DUO_CHECK_MSG(policy_.reconnect_wait_ms >= 0.0,
                "ResilientHandle: negative reconnect_wait_ms");
}

ResilientHandle::Gate ResilientHandle::circuit_gate() {
  if (policy_.circuit_threshold <= 0) return Gate::kAllow;
  std::lock_guard<std::mutex> lock(mutex_);
  switch (circuit_) {
    case CircuitState::kClosed:
      return Gate::kAllow;
    case CircuitState::kOpen:
      if (clock_->now_ms() - opened_at_ms_ >= cooldown_ms_) {
        circuit_ = CircuitState::kHalfOpen;
        probe_in_flight_ = true;
        return Gate::kAllowProbe;
      }
      ++fast_failures_;
      return Gate::kFailFast;
    case CircuitState::kHalfOpen:
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        return Gate::kAllowProbe;
      }
      ++fast_failures_;
      return Gate::kFailFast;
  }
  return Gate::kAllow;  // unreachable
}

ResilientHandle::GuardedSubmit ResilientHandle::guarded_submit(
    const video::Video& v, std::size_t m) {
  const Gate gate = circuit_gate();
  GuardedSubmit g;
  if (gate == Gate::kFailFast) {
    // Nothing is sent to the victim: surface kUnavailable through the
    // future so pipelined callers hit it inside get(), where their
    // checkpoint-on-fatal path runs.
    std::promise<metrics::RetrievalList> rejected;
    g.out.future = rejected.get_future();
    g.out.accepted = false;
    rejected.set_exception(std::make_exception_ptr(ServeError(
        ServeErrorCode::kUnavailable, /*billed=*/false,
        "ResilientHandle: circuit open, victim presumed unavailable")));
    return g;
  }
  if (pacer_ != nullptr) pacer_->acquire();
  g.out = inner_.submit_with_deadline(v, m, policy_.submit_deadline);
  g.probe = (gate == Gate::kAllowProbe);
  return g;
}

metrics::RetrievalList ResilientHandle::retrieve(const video::Video& v,
                                                 std::size_t m) {
  GuardedSubmit first = guarded_submit(v, m);
  return await_with_retry(std::move(first.out.future), first.out.accepted,
                          first.probe, v, m);
}

PendingRetrieval ResilientHandle::submit(video::Video v, std::size_t m) {
  GuardedSubmit first = guarded_submit(v, m);
  const bool probe = first.probe;
  return PendingRetrieval(*this, std::move(v), m, std::move(first.out), probe);
}

namespace {

// Moves a ready future's value into `list`, or returns its exception.
std::exception_ptr get_into(std::future<metrics::RetrievalList>& future,
                            metrics::RetrievalList& list) {
  try {
    list = future.get();
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

// The exception of a ready future that is known to hold one (an
// unaccepted submission never carries a value).
std::exception_ptr error_of(std::future<metrics::RetrievalList>& future) {
  metrics::RetrievalList unused;
  return get_into(future, unused);
}

}  // namespace

ResilientHandle::FailureInfo ResilientHandle::classify_failure(
    std::exception_ptr error, bool was_probe) {
  DUO_CHECK_MSG(error != nullptr,
                "ResilientHandle: classify_failure on a success");
  FailureInfo info;
  try {
    std::rethrow_exception(error);
  } catch (const ServeError& e) {
    if (!e.retryable()) {
      // A probe dying on a non-retryable error leaves via throw; release
      // the half-open slot so later queries can re-probe.
      if (was_probe) release_probe();
      throw;
    }
    if (e.connection_lost()) {
      note_connection_lost(was_probe);
      info.connection_lost = true;
      return info;
    }
    note_retryable(e.overload(), was_probe);
    if (pacer_ != nullptr && e.overload()) pacer_->on_overload(e.retry_after_ms());
    info.retry_after_ms = e.retry_after_ms();
    return info;
  } catch (const std::future_error&) {
    // Dropped response: promise abandoned server-side. Breaker-relevant.
    note_retryable(/*overload=*/false, was_probe);
  }
  return info;
}

metrics::RetrievalList ResilientHandle::await_with_retry(
    std::future<metrics::RetrievalList> future, bool accepted, bool probe,
    const video::Video& v, std::size_t m) {
  bool any_billed = accepted;
  int attempt = 1;
  int lost_streak = 0;  // consecutive connection-lost failures
  double retry_after_ms = 0.0;
  bool lost = false;
  if (!accepted) {
    // Throws if fatal.
    const FailureInfo info = classify_failure(error_of(future), probe);
    retry_after_ms = info.retry_after_ms;
    lost = info.connection_lost;
  }
  for (;;) {
    if (accepted) {
      lost = false;
      if (future.wait_for(policy_.query_timeout) ==
          std::future_status::ready) {
        metrics::RetrievalList list;
        const std::exception_ptr error = get_into(future, list);
        if (error == nullptr) {
          note_success(probe);
          if (pacer_ != nullptr) pacer_->on_success();
          return list;
        }
        // A connection loss means the request died with the server (billed
        // — it was accepted); it is replayed through the reconnect path.
        const FailureInfo info = classify_failure(error, probe);
        retry_after_ms = info.retry_after_ms;
        lost = info.connection_lost;
      } else {
        // Answer overdue: declare it lost and resubmit. The abandoned future
        // may still be fulfilled later; that forward stays billed. A victim
        // that stops answering is breaker-relevant.
        note_retryable(/*overload=*/false, probe);
        retry_after_ms = 0.0;
      }
    }
    if (lost) {
      // Reconnect path: the victim crashed — ride out the downtime without
      // spending attempts or budget (the crash is not this query's fault),
      // bounded by its own allowance so a server that never comes back
      // still fails closed. The wait is REAL wall time: the restart runs in
      // real time on another thread, and under a VirtualClock a clocked
      // sleep would complete instantly and burn the allowance dry before
      // the server is back.
      if (++lost_streak > policy_.reconnect_attempts) {
        throw ServeError(ServeErrorCode::kRetryExhausted, any_billed,
                         "ResilientHandle: reconnect attempts exhausted — "
                         "the server never came back");
      }
      if (policy_.reconnect_wait_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            policy_.reconnect_wait_ms));
      }
      retry_after_ms = 0.0;
    } else {
      lost_streak = 0;
      if (attempt >= policy_.max_attempts) {
        throw ServeError(ServeErrorCode::kRetryExhausted, any_billed,
                         "ResilientHandle: attempts exhausted for this query");
      }
      consume_budget(any_billed);
      const auto backoff = next_backoff(attempt);
      // A server retry_after hint is a floor on the wait, not a replacement
      // for backoff: the client never retries sooner than the victim asked.
      const double wait_ms = std::max(backoff.count(), retry_after_ms);
      if (wait_ms > 0.0) clock_->sleep_ms(wait_ms);
      retry_after_ms = 0.0;
      ++attempt;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++retries_;
      }
    }
    GuardedSubmit retry = guarded_submit(v, m);
    accepted = retry.out.accepted;
    probe = retry.probe;
    any_billed = any_billed || accepted;
    future = std::move(retry.out.future);
    if (!accepted) {
      const FailureInfo info = classify_failure(error_of(future), probe);
      retry_after_ms = info.retry_after_ms;
      lost = info.connection_lost;
      probe = false;  // the failed probe already released its slot
    }
  }
}

void ResilientHandle::open_circuit_locked() {
  circuit_ = CircuitState::kOpen;
  opened_at_ms_ = clock_->now_ms();
  // Jittered cooldown from the same seeded stream as backoff, so the
  // open → half-open schedule is deterministic under a fixed seed.
  cooldown_ms_ =
      policy_.circuit_cooldown_ms * (1.0 + policy_.jitter * jitter_rng_.uniform());
  probe_in_flight_ = false;
  consecutive_failures_ = 0;
  ++circuit_opens_;
}

void ResilientHandle::note_retryable(bool overload, bool was_probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++faults_seen_;
  if (overload) {
    ++overloads_seen_;
    // Overload pushback proves the victim is alive: never advances the
    // breaker. A throttled probe just releases its half-open slot so the
    // next attempt can re-probe.
    if (was_probe && circuit_ == CircuitState::kHalfOpen) {
      probe_in_flight_ = false;
    }
    return;
  }
  if (policy_.circuit_threshold <= 0) return;
  if (was_probe && circuit_ == CircuitState::kHalfOpen) {
    open_circuit_locked();  // probe failed: back to open, fresh cooldown
    return;
  }
  if (circuit_ == CircuitState::kClosed) {
    if (++consecutive_failures_ >= policy_.circuit_threshold) {
      open_circuit_locked();
    }
  }
}

void ResilientHandle::note_connection_lost(bool was_probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++faults_seen_;
  ++connection_losses_;
  // Never advances the breaker: a crash heals via restart, and an open
  // circuit would abort the whole attack with kUnavailable. A half-open
  // probe just releases its slot (like overload pushback) so the next
  // attempt can re-probe.
  if (was_probe && circuit_ == CircuitState::kHalfOpen) {
    probe_in_flight_ = false;
  }
}

void ResilientHandle::release_probe() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (circuit_ == CircuitState::kHalfOpen) probe_in_flight_ = false;
}

void ResilientHandle::note_success(bool was_probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  consecutive_failures_ = 0;
  if (was_probe || circuit_ == CircuitState::kHalfOpen) {
    circuit_ = CircuitState::kClosed;
    probe_in_flight_ = false;
  }
}

void ResilientHandle::consume_budget(bool any_billed) {
  if (policy_.retry_budget < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_left_ <= 0) {
    throw ServeError(ServeErrorCode::kRetryExhausted, any_billed,
                     "ResilientHandle: total retry budget exhausted");
  }
  --budget_left_;
}

std::chrono::duration<double, std::milli> ResilientHandle::next_backoff(
    int attempt) {
  // min(cap, base * 2^(attempt-1)), scaled by deterministic jitter. The
  // shift is clamped so pathological attempt counts cannot overflow.
  const int shift = std::min(attempt - 1, 20);
  const double base = static_cast<double>(policy_.backoff_base.count()) *
                      static_cast<double>(1 << shift);
  const double capped =
      std::min(base, static_cast<double>(policy_.backoff_cap.count()));
  double u = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    u = jitter_rng_.uniform();
  }
  return std::chrono::duration<double, std::milli>(
      capped * (1.0 + policy_.jitter * u));
}

std::int64_t ResilientHandle::retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retries_;
}

std::int64_t ResilientHandle::faults_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_seen_;
}

std::int64_t ResilientHandle::overloads_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overloads_seen_;
}

std::int64_t ResilientHandle::connection_losses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return connection_losses_;
}

std::int64_t ResilientHandle::circuit_opens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return circuit_opens_;
}

std::int64_t ResilientHandle::fast_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fast_failures_;
}

CircuitState ResilientHandle::circuit_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return circuit_;
}

}  // namespace duo::serve
