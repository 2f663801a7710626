#pragma once

/// @file
/// Dynamic batching policies for the serving queue. The server loop asks
/// the policy what to do given the current queue and clock; the policy
/// answers with either "dispatch the first K requests now" or "wait, and
/// re-evaluate no later than wake_us, or once arrivals lift the queue to
/// min_depth". Three classic points in the design space:
///
///   * FixedSizePolicy    — dispatch only full batches of B; maximum
///                          throughput, unbounded queueing delay at low load
///   * TimeoutPolicy      — full batch of B or the oldest request has
///                          waited timeout_us; bounds queueing delay
///   * AdaptivePolicy     — size x deadline: estimates the arrival rate
///                          (EWMA of inter-arrival gaps) and dispatches
///                          early when the max batch cannot fill before the
///                          oldest request's deadline would expire
///
/// Policies are stateful (the adaptive one carries its rate estimate);
/// create a fresh instance per serving run.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "serve/request.hpp"
#include "sim/sim_time.hpp"

namespace dgnn::serve {

/// "No wake-up scheduled" sentinel: only a new arrival (or the end of the
/// arrival stream) re-triggers the policy.
inline constexpr sim::SimTime kNoWake = 1e30;

/// What the server loop should do next.
struct BatchDecision {
    /// Number of queue-front requests to dispatch now; 0 = keep waiting.
    int64_t dispatch = 0;
    /// When dispatch == 0: absolute time to re-evaluate (kNoWake = only on
    /// arrival).
    sim::SimTime wake_us = kNoWake;
    /// When dispatch == 0: the queue depth below which arrivals alone
    /// cannot make the policy dispatch before wake_us, so the server skips
    /// re-evaluating on them. 0 (or anything <= the current depth) means
    /// "re-evaluate on every arrival". The end of the arrival stream always
    /// re-triggers the policy.
    int64_t min_depth = 0;
};

/// Strategy deciding when the queue becomes a batch.
class BatchPolicy {
  public:
    virtual ~BatchPolicy() = default;

    virtual std::string Name() const = 0;

    /// Called by the server on every request admission (rate estimators).
    virtual void OnArrival(sim::SimTime) {}

    /// @param queue        pending requests, oldest first
    /// @param now_us       current simulated time, same clock as the queued
    ///                     arrival timestamps (policies only take
    ///                     differences, so the epoch does not matter)
    /// @param stream_ended no further arrivals will come; drain mode
    virtual BatchDecision Decide(const std::deque<Request>& queue,
                                 sim::SimTime now_us, bool stream_ended) = 0;
};

/// Dispatches only full batches of @p batch_size (flushes leftovers once
/// the arrival stream ends). Its min_depth is @p batch_size.
class FixedSizePolicy : public BatchPolicy {
  public:
    explicit FixedSizePolicy(int64_t batch_size);

    std::string Name() const override;
    BatchDecision Decide(const std::deque<Request>& queue, sim::SimTime now_us,
                         bool stream_ended) override;

  private:
    int64_t batch_size_;
};

/// Dispatches a full batch of @p batch_size, or whatever is queued once the
/// oldest request has waited @p timeout_us. Its min_depth is @p batch_size
/// (1 on an empty queue: the next arrival starts the timeout).
class TimeoutPolicy : public BatchPolicy {
  public:
    TimeoutPolicy(int64_t batch_size, sim::SimTime timeout_us);

    std::string Name() const override;
    BatchDecision Decide(const std::deque<Request>& queue, sim::SimTime now_us,
                         bool stream_ended) override;

  private:
    int64_t batch_size_;
    sim::SimTime timeout_us_;
};

/// Size x deadline adaptive batching: keeps an EWMA estimate of the
/// inter-arrival gap and, whenever filling up to @p max_batch would blow
/// the oldest request's queueing deadline, dispatches what is queued (once
/// at least @p min_batch deep, or unconditionally at the deadline). Every
/// arrival moves its rate estimate, so its min_depth is 0.
class AdaptivePolicy : public BatchPolicy {
  public:
    AdaptivePolicy(int64_t min_batch, int64_t max_batch,
                   sim::SimTime deadline_us);

    std::string Name() const override;
    void OnArrival(sim::SimTime arrival_us) override;
    BatchDecision Decide(const std::deque<Request>& queue, sim::SimTime now_us,
                         bool stream_ended) override;

    /// Current EWMA inter-arrival estimate (us); exposed for tests.
    sim::SimTime EstimatedGapUs() const { return ewma_gap_us_; }

    /// Whether at least one inter-arrival gap has been observed (a gap of
    /// exactly 0 — a burst — still counts); exposed for tests.
    bool HasGapEstimate() const { return has_gap_estimate_; }

  private:
    int64_t min_batch_;
    int64_t max_batch_;
    sim::SimTime deadline_us_;
    sim::SimTime ewma_gap_us_ = 0.0;
    sim::SimTime last_arrival_us_ = 0.0;
    bool saw_arrival_ = false;
    bool has_gap_estimate_ = false;
};

}  // namespace dgnn::serve
