#pragma once

/// @file
/// The online-serving simulator: an open-loop arrival stream feeds a
/// request queue; a BatchPolicy turns the queue into batches; a
/// BatchExecutor issues each batch's captured cost profile to a fresh
/// simulated runtime. The loop is a discrete-event simulation on the
/// runtime's host clock — when there is nothing to dispatch the host idles
/// to the next arrival that can form a batch (BatchDecision::min_depth) or
/// to the policy's wake-up, sampling queued requests ahead of dispatch
/// meanwhile when the model samples neighbours on the host. Produces a ServingReport with the
/// tail-latency histogram, queue/batch statistics, and sustained
/// throughput; FindCapacity searches for the highest Poisson rate the
/// server sustains under a p99 SLO.

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

/// The capacity definition, shared by every caller: a probe is sustained
/// when its p99 is at most the SLO and completions keep at least the
/// keep-up share of the probe stream's own measured rate (a finite stream
/// bounds p99 even past saturation, so the latency half alone never
/// breaks). The probe must be long enough that the 2% keep-up slack
/// exceeds the drain tail of its last batches; shorter probes measure that
/// tail, not saturation (DESIGN §7).
inline constexpr sim::SimTime kCapacitySloUs = 20000.0;
inline constexpr double kCapacityKeepUpShare = 0.98;
/// The search stops once the bracket is within this share of its floor.
inline constexpr double kCapacityResolution = 0.005;
inline constexpr double kCapacityFloorQps = 50.0;
/// Probes spent doubling, the floor's included.
inline constexpr int kCapacityMaxSteps = 24;
inline constexpr int64_t kCapacityProbeRequests = 16384;

/// Result of the capacity search.
struct QpsSearchResult {
    /// Highest Poisson rate found sustained (0 when the floor is not).
    double max_qps = 0.0;
    /// p99 latency at that rate, us.
    sim::SimTime p99_us = 0.0;
    /// Serving runs the search spent.
    int64_t evaluations = 0;
};

/// Searches the highest sustained Poisson rate: doubles from
/// kCapacityFloorQps until a probe breaks, then bisects until the bracket
/// is within kCapacityResolution of its sustained floor, which it returns.
/// A floor that is not sustained returns 0 after one probe. Each probe is
/// kCapacityProbeRequests arrivals drawn from @p seed, served under a
/// fresh policy from @p make_policy. Deterministic.
QpsSearchResult FindCapacity(
    ModelSession& session,
    const std::function<std::unique_ptr<BatchPolicy>()>& make_policy,
    const ServerOptions& options, uint64_t seed);

}  // namespace dgnn::serve
