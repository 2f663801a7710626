#include "serve/request.hpp"

#include <cmath>

#include "support/check.hpp"
#include "tensor/random.hpp"

namespace dgnn::serve {

std::vector<sim::SimTime>
PoissonArrivals(double rate_qps, int64_t n, uint64_t seed)
{
    DGNN_CHECK(std::isfinite(rate_qps) && rate_qps > 0.0,
               "arrival rate must be positive and finite, got ", rate_qps);
    DGNN_CHECK(n >= 0, "request count must be non-negative, got ", n);
    // Rng::Exponential takes a rate in events per time unit; ours is per
    // second while the timeline is microseconds.
    const double rate_per_us = rate_qps / 1e6;
    Rng rng(seed);
    std::vector<sim::SimTime> arrivals;
    arrivals.reserve(static_cast<size_t>(n));
    sim::SimTime t = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        t += rng.Exponential(rate_per_us);
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<sim::SimTime>
TraceArrivals(const graph::EventStream& stream, double target_qps, int64_t n)
{
    DGNN_CHECK(std::isfinite(target_qps) && target_qps > 0.0,
               "target rate must be positive and finite, got ", target_qps);
    DGNN_CHECK(n >= 0, "request count must be non-negative, got ", n);
    DGNN_CHECK(stream.NumEvents() >= 2,
               "trace-driven arrivals need a stream with at least 2 events");

    // Gather the stream's inter-arrival gaps (cycled if needed) and their
    // mean, then rescale so the mean gap matches the target rate.
    const int64_t num_gaps = stream.NumEvents() - 1;
    std::vector<double> gaps;
    gaps.reserve(static_cast<size_t>(n));
    double gap_sum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t g = i % num_gaps;
        const double gap = stream.Event(g + 1).time - stream.Event(g).time;
        gaps.push_back(gap);
        gap_sum += gap;
    }
    const double mean_gap =
        n > 0 ? gap_sum / static_cast<double>(n) : 0.0;
    const double target_gap_us = 1e6 / target_qps;
    // A degenerate trace (all simultaneous events) falls back to uniform
    // spacing at the target rate.
    const double scale = mean_gap > 0.0 ? target_gap_us / mean_gap : 0.0;

    std::vector<sim::SimTime> arrivals;
    arrivals.reserve(static_cast<size_t>(n));
    sim::SimTime t = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        t += scale > 0.0 ? gaps[static_cast<size_t>(i)] * scale : target_gap_us;
        arrivals.push_back(t);
    }
    return arrivals;
}

std::vector<Request>
TraceRequests(const graph::EventStream& stream, double target_qps, int64_t n)
{
    const std::vector<sim::SimTime> arrivals = TraceArrivals(stream, target_qps, n);
    std::vector<Request> requests;
    requests.reserve(arrivals.size());
    for (int64_t i = 0; i < n; ++i) {
        const graph::TemporalEvent& e = stream.Event(i % stream.NumEvents());
        requests.push_back(Request{i, arrivals[static_cast<size_t>(i)], e.src,
                                   e.dst});
    }
    return requests;
}

double
OfferedQps(const std::vector<Request>& requests)
{
    if (requests.empty() ||
        requests.back().arrival_us <= requests.front().arrival_us) {
        return 0.0;
    }
    return static_cast<double>(requests.size() - 1) /
           (requests.back().arrival_us - requests.front().arrival_us) * 1e6;
}

}  // namespace dgnn::serve
