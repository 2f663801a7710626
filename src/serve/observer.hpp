#pragma once

/// @file
/// The serving observability seam. The serving loop (server.cpp) and the
/// batch executors expose their internal lifecycle — request admission,
/// idle wakes, per-batch stage boundaries — through this passive interface
/// so an observability layer (src/obs/) can attach per-request span
/// tracing, metrics, and bottleneck attribution WITHOUT perturbing the
/// simulation: every hook is called with read-only state after the
/// corresponding simulated work was issued, and a null observer (the
/// default) short-circuits all of it, leaving the serving loop's behavior
/// and all committed expected outputs bit-identical.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/device_cache.hpp"
#include "dispatch/dispatcher.hpp"
#include "serve/executor.hpp"
#include "serve/request.hpp"
#include "serve/shard_hook.hpp"
#include "sim/runtime.hpp"

namespace dgnn::serve {

/// Immutable context of one serving run, handed to the observer before the
/// serving window opens. The runtime and cache pointers stay valid until
/// OnRunEnd returns (the runtime is destroyed when the run finishes).
struct RunContext {
    std::string model;
    std::string mode;
    std::string policy;
    std::string executor;
    /// The run's runtime — its counters are readable at any hook. Its
    /// tracing is off (Runtime::SetTracing), so it records no per-op trace;
    /// an observer that reads the trace turns tracing on in OnRunBegin,
    /// before the serving window issues any op. Never null during a run.
    sim::Runtime* runtime = nullptr;
    /// The session's device cache (disabled instance when uncached).
    const cache::DeviceCache* cache = nullptr;
    /// Absolute host time at which the serving window opened; arrival
    /// timestamps in hooks are absolute (window_start + relative arrival).
    sim::SimTime window_start_us = 0.0;
};

/// Everything the serving loop knows about one dispatched batch, delivered
/// to the observer right after the executor accepted it.
struct BatchObservation {
    int64_t batch_index = 0;
    /// Queue depth at the dispatch decision (>= the batch size).
    int64_t queue_depth = 0;
    /// Stage boundaries captured by the executor (see BatchSpans).
    BatchSpans spans;
    /// The batch's resolved cache outcome (all-zero for uncached sessions).
    CacheBatchCost cache_cost;
    /// The batch's cross-shard exchange cost (all-zero without a shard
    /// hook — i.e. in every unsharded run).
    ExchangeCost exchange;
    /// The captured cost profile the executor issued (the FUSED profile
    /// when the batch was placed on kGpuFused).
    const BatchProfile* profile = nullptr;
    /// Members whose neighbour sampling the host did while it idled before
    /// the dispatch, and the host time that spared the batch's host stage,
    /// us: ProfileTable::PrepUs of the batch size less that of the members
    /// still unsampled (both 0 when no member was sampled early).
    int64_t prepped_requests = 0;
    sim::SimTime prep_credit_us = 0.0;
    /// The routing verdict with the predictions it was based on (the
    /// configured dispatcher's, or the device-only decision when none is
    /// set); absent for CPU-only sessions.
    std::optional<dispatch::PlacementDecision> decision;
    /// The member requests, oldest first, with ABSOLUTE arrival timestamps.
    std::vector<Request> requests;
};

/// Passive observer of one serving run. All hooks default to no-ops so
/// implementations override only what they consume. Hooks are invoked in
/// simulation order: OnRunBegin, then interleaved OnArrival / OnIdleWake /
/// OnBatch, then OnRunEnd exactly once after the executor drained and the
/// end-of-run cache flush was issued.
class ServingObserver {
  public:
    virtual ~ServingObserver() = default;

    virtual void OnRunBegin(const RunContext&) {}

    /// A request was admitted to the queue (absolute arrival timestamp).
    virtual void OnArrival(const Request&) {}

    /// The loop had nothing to dispatch and idles until the wake time; the
    /// bool distinguishes policy re-evaluation deadlines (timeout flushes,
    /// true) from waits for the next arrival that can form a batch (false).
    virtual void OnIdleWake(sim::SimTime /*wake_us*/, bool /*policy_wake*/) {}

    /// A batch was dispatched and its completion time is known.
    virtual void OnBatch(const BatchObservation&) {}

    virtual void OnRunEnd() {}
};

}  // namespace dgnn::serve
