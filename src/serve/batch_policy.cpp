#include "serve/batch_policy.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "support/check.hpp"

namespace dgnn::serve {

namespace {

/// @p us truncated toward zero, as policy names print a wait, without an
/// integer cast (one of 2^63 or more is undefined); + 0.0 prints -0.0 as 0.
std::string
WholeMicroseconds(sim::SimTime us)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(0) << std::trunc(us) + 0.0;
    return out.str();
}

}  // namespace

FixedSizePolicy::FixedSizePolicy(int64_t batch_size) : batch_size_(batch_size)
{
    DGNN_CHECK(batch_size_ > 0, "batch size must be positive, got ",
               batch_size_);
}

std::string
FixedSizePolicy::Name() const
{
    return "fixed(" + std::to_string(batch_size_) + ")";
}

BatchDecision
FixedSizePolicy::Decide(const std::deque<Request>& queue, sim::SimTime /*now_us*/,
                        bool stream_ended)
{
    const auto depth = static_cast<int64_t>(queue.size());
    if (depth >= batch_size_) {
        return {batch_size_, kNoWake};
    }
    if (stream_ended && depth > 0) {
        return {depth, kNoWake};
    }
    return {0, kNoWake, batch_size_};
}

TimeoutPolicy::TimeoutPolicy(int64_t batch_size, sim::SimTime timeout_us)
    : batch_size_(batch_size), timeout_us_(timeout_us)
{
    DGNN_CHECK(batch_size_ > 0, "batch size must be positive, got ",
               batch_size_);
    DGNN_CHECK(std::isfinite(timeout_us_) && timeout_us_ >= 0.0,
               "timeout must be finite and non-negative, got ", timeout_us_);
}

std::string
TimeoutPolicy::Name() const
{
    return "timeout(" + std::to_string(batch_size_) + "," +
           WholeMicroseconds(timeout_us_) + "us)";
}

BatchDecision
TimeoutPolicy::Decide(const std::deque<Request>& queue, sim::SimTime now_us,
                      bool stream_ended)
{
    const auto depth = static_cast<int64_t>(queue.size());
    if (depth >= batch_size_) {
        return {batch_size_, kNoWake};
    }
    if (depth == 0) {
        return {0, kNoWake, 1};
    }
    const sim::SimTime deadline = queue.front().arrival_us + timeout_us_;
    if (stream_ended || now_us >= deadline) {
        return {depth, kNoWake};
    }
    return {0, deadline, batch_size_};
}

AdaptivePolicy::AdaptivePolicy(int64_t min_batch, int64_t max_batch,
                               sim::SimTime deadline_us)
    : min_batch_(min_batch), max_batch_(max_batch), deadline_us_(deadline_us)
{
    DGNN_CHECK(min_batch_ > 0, "min batch must be positive, got ", min_batch_);
    DGNN_CHECK(max_batch_ >= min_batch_,
               "max batch must be >= min batch, got ", max_batch_);
    DGNN_CHECK(std::isfinite(deadline_us_) && deadline_us_ >= 0.0,
               "deadline must be finite and non-negative, got ", deadline_us_);
}

std::string
AdaptivePolicy::Name() const
{
    return "adaptive(" + std::to_string(min_batch_) + ".." +
           std::to_string(max_batch_) + "," +
           WholeMicroseconds(deadline_us_) + "us)";
}

void
AdaptivePolicy::OnArrival(sim::SimTime arrival_us)
{
    if (saw_arrival_) {
        const sim::SimTime gap = arrival_us - last_arrival_us_;
        constexpr double kAlpha = 0.2;
        // Estimate presence is tracked by a boolean, not by the value: a
        // first gap of exactly 0 (simultaneous arrivals in a burst) is a
        // legitimate "infinitely fast" estimate, not its absence.
        ewma_gap_us_ = has_gap_estimate_
                           ? (1.0 - kAlpha) * ewma_gap_us_ + kAlpha * gap
                           : gap;
        has_gap_estimate_ = true;
    }
    last_arrival_us_ = arrival_us;
    saw_arrival_ = true;
}

BatchDecision
AdaptivePolicy::Decide(const std::deque<Request>& queue, sim::SimTime now_us,
                       bool stream_ended)
{
    const auto depth = static_cast<int64_t>(queue.size());
    if (depth >= max_batch_) {
        return {max_batch_, kNoWake};
    }
    if (depth == 0) {
        return {0, kNoWake};
    }
    if (stream_ended) {
        return {depth, kNoWake};
    }
    const sim::SimTime deadline = queue.front().arrival_us + deadline_us_;
    if (now_us >= deadline) {
        return {depth, kNoWake};
    }
    // Size x deadline tradeoff: if the remaining slots cannot plausibly
    // fill before the deadline (at the estimated arrival rate), stop
    // accumulating once min_batch is reached instead of eating the full
    // deadline for nothing.
    const sim::SimTime fill_us =
        ewma_gap_us_ * static_cast<double>(max_batch_ - depth);
    if (depth >= min_batch_ &&
        (!has_gap_estimate_ || now_us + fill_us > deadline)) {
        return {depth, kNoWake};
    }
    return {0, deadline};
}

}  // namespace dgnn::serve
