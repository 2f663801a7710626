#pragma once

/// @file
/// Online-serving request model and arrival processes. A request is one
/// inference unit (one interaction event for the CTDG models, one
/// snapshot/graph for the DTDG ones); an arrival process is the sorted
/// sequence of simulated arrival timestamps, relative to the start of the
/// serving window. Two generators: a Poisson process (the classic open-loop
/// load model) and a trace-driven replay that rescales the inter-arrival
/// gaps of a real graph::EventStream so its burstiness survives at any
/// target rate.

#include <cstdint>
#include <vector>

#include "graph/event_stream.hpp"
#include "sim/sim_time.hpp"

namespace dgnn::serve {

/// One queued inference request. src/dst identify the nodes the request
/// touches (the interaction's endpoints) so a cache-aware session can model
/// cross-batch locality; -1 = unknown (node-blind generators), in which
/// case cached serving falls back to the captured all-miss state volume.
struct Request {
    int64_t id = 0;
    sim::SimTime arrival_us = 0.0;
    int64_t src = -1;
    int64_t dst = -1;
};

/// Poisson arrivals: @p n exponential inter-arrival gaps at @p rate_qps
/// requests per second, deterministic in @p seed.
std::vector<sim::SimTime> PoissonArrivals(double rate_qps, int64_t n,
                                          uint64_t seed);

/// Trace-driven arrivals: replays the inter-arrival gaps of @p stream
/// (cycling when n exceeds the stream length), rescaled so the mean rate is
/// @p target_qps. Preserves the stream's burstiness profile.
std::vector<sim::SimTime> TraceArrivals(const graph::EventStream& stream,
                                        double target_qps, int64_t n);

/// Trace-driven *requests*: same timestamps as TraceArrivals plus the
/// replayed event's endpoints, so recurrent nodes in the stream (the
/// Wikipedia/Reddit repeat-talkers) reappear across serving batches and a
/// warm device cache can exploit the locality.
std::vector<Request> TraceRequests(const graph::EventStream& stream,
                                   double target_qps, int64_t n);

/// The arrival rate @p requests (sorted) offer: n - 1 gaps over the span
/// from the first to the last arrival, per second. 0 when that span is
/// empty. Where the trace starts does not matter.
[[nodiscard]] double OfferedQps(const std::vector<Request>& requests);

}  // namespace dgnn::serve
