#pragma once

/// @file
/// The online-serving simulator: an open-loop arrival stream feeds a
/// request queue; a BatchPolicy turns the queue into batches; a
/// BatchExecutor issues each batch's captured cost profile to a fresh
/// simulated runtime. The loop is a discrete-event simulation on the
/// runtime's host clock — when there is nothing to dispatch the host idles
/// to the next arrival that can form a batch (BatchDecision::min_depth) or
/// to the policy's wake-up. Produces a ServingReport with the
/// tail-latency histogram, queue/batch statistics, and sustained
/// throughput; FindMaxQpsUnderSlo searches for the highest offered rate
/// whose p99 stays under an SLO.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/latency_histogram.hpp"
#include "dispatch/dispatcher.hpp"
#include "serve/batch_policy.hpp"
#include "serve/executor.hpp"
#include "serve/model_session.hpp"
#include "serve/observer.hpp"
#include "serve/request.hpp"
#include "serve/shard_hook.hpp"

namespace dgnn::serve {

/// Which executor the server builds over its runtime.
enum class ExecutorKind {
    kSerial,
    kPipelined,
};

const char* ToString(ExecutorKind kind);

/// Server knobs independent of policy and load.
struct ServerOptions {
    ExecutorKind executor = ExecutorKind::kPipelined;
    /// Optional passive observer (src/obs/). Null — the default — disables
    /// all observability hooks; the simulation is bit-identical either way
    /// because the hooks only read state.
    ServingObserver* observer = nullptr;
    /// Optional passive runtime observer (src/analysis/ — attach an
    /// analysis::HazardChecker to happens-before-check the run). Attached
    /// to the per-run runtime before any work is issued; null — the
    /// default — keeps the run bit-identical and skips all access
    /// annotation work.
    sim::RuntimeObserver* runtime_observer = nullptr;
    /// Optional per-batch shard intercept (src/shard/): names the
    /// topology node the run's runtime models, claims the batch nodes
    /// owned by remote shards and issues the priced alltoall exchange
    /// before the batch executes. Null — the default — runs on
    /// sim::Topology::SinglePair() and skips the seam entirely. Borrowed;
    /// must outlive the run.
    BatchShardHook* shard_hook = nullptr;
    /// Optional per-batch hybrid dispatcher (src/dispatch/): predicts each
    /// dispatched batch's CPU / GPU / GPU-fused cost from the session's
    /// captured profiles, priced on the run's own topology node, and routes
    /// the batch accordingly (predict-then-place). Hybrid sessions only:
    /// a run on any other session throws before it starts.
    /// CPU routing is masked for cache-enabled sessions (their state is
    /// device-resident). Null — the default — still prices every batch of
    /// a hybrid session, with the device-only decision (a kHybrid
    /// dispatcher with the CPU masked): each batch runs whichever of its
    /// unfused and fused profiles is cheaper on the node's GPU. Set
    /// DispatchMode::kStaticGpu for the unfused baseline. Decisions are
    /// memoized per batch size within one run. Borrowed; must outlive the
    /// run.
    const dispatch::HybridDispatcher* dispatcher = nullptr;
};

/// Everything one serving run produces.
struct ServingReport {
    std::string model;
    std::string mode;
    std::string policy;
    std::string executor;

    int64_t requests = 0;
    int64_t batches = 0;
    double offered_qps = 0.0;   ///< arrival rate implied by the workload
    double achieved_qps = 0.0;  ///< completions over the serving makespan
    sim::SimTime makespan_us = 0.0;

    /// End-to-end request latency (arrival -> results on host), us.
    /// latency.OverflowCount() reports samples clamped into the top bucket
    /// (non-zero means the p99 is biased low — the saturation flag).
    core::LatencyHistogram latency;
    /// Queue depth sampled at each dispatch decision.
    core::RunningStat queue_depth;
    /// Dispatched batch sizes.
    core::RunningStat batch_size;

    /// PCIe traffic of the serving window (the Fig 6/7 transfer categories
    /// under load).
    int64_t h2d_bytes = 0;
    int64_t d2h_bytes = 0;
    /// H2D bytes served on-device by cache hits during this run.
    int64_t cache_hit_bytes = 0;
    /// Device-cache counters for THIS run (delta of the session cache,
    /// which stays warm across runs). All zero for uncached sessions.
    cache::CacheStats cache_stats;
    /// Cross-shard exchange totals across the run's batches (all-zero
    /// without a shard hook — every unsharded run).
    ExchangeCost exchange;
    /// Batches routed to each placement, indexed by dispatch::Placement:
    /// by the configured dispatcher, or by the device-only decision when
    /// none is set. Every batch of a hybrid session is counted; all-zero
    /// for CPU-only sessions.
    std::array<int64_t, dispatch::kNumPlacements> placement_batches{};
};

/// Runs one serving simulation of @p arrivals (relative timestamps, sorted)
/// against @p session under @p policy. Builds a fresh runtime internally,
/// on the shard hook's topology node or else on SinglePair(), and pays its
/// one-time device warm-up before the serving window opens. Deterministic
/// for fixed inputs. Requests carry no node identities, so a cache-enabled
/// session falls back to the captured all-miss state volume.
ServingReport Serve(ModelSession& session, BatchPolicy& policy,
                    const std::vector<sim::SimTime>& arrivals,
                    const ServerOptions& options);

/// General entry: node-bearing requests (relative arrival timestamps,
/// sorted). When the session serves through a device cache, each dispatched
/// batch's unique request nodes run through the live cache — recurrent
/// nodes across batches become on-device hits, which is the cross-batch
/// locality the offline benches cannot express.
ServingReport ServeRequests(ModelSession& session, BatchPolicy& policy,
                            const std::vector<Request>& requests,
                            const ServerOptions& options);

/// Result of the sustained-throughput search.
struct QpsSearchResult {
    /// Highest offered rate the server sustained — p99 under the SLO while
    /// completions keep pace with arrivals (0 when even the lowest probed
    /// rate failed).
    double max_qps = 0.0;
    /// p99 latency at that rate, us.
    sim::SimTime p99_us = 0.0;
    /// Serving runs the search spent.
    int64_t evaluations = 0;
};

/// Binary-searches the maximum sustained Poisson arrival rate: p99 <=
/// @p slo_us and completions keeping pace with arrivals (>= 95% of the
/// offered rate — a finite workload bounds p99 even past saturation, so
/// the latency criterion alone would not saturate). Doubles from
/// @p lo_qps until the criterion breaks, then bisects a fixed number of
/// rounds. Policies are recreated per evaluation via @p make_policy;
/// arrivals are regenerated per rate from @p seed. Deterministic.
QpsSearchResult FindMaxQpsUnderSlo(
    ModelSession& session,
    const std::function<std::unique_ptr<BatchPolicy>()>& make_policy,
    const ServerOptions& options, sim::SimTime slo_us, int64_t num_requests,
    uint64_t seed, double lo_qps = 50.0);

}  // namespace dgnn::serve
