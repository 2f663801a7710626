#include "serve/server.hpp"

#include <algorithm>
#include <optional>

#include "support/check.hpp"

namespace dgnn::serve {

const char*
ToString(ExecutorKind kind)
{
    switch (kind) {
      case ExecutorKind::kSerial:
        return "serial";
      case ExecutorKind::kPipelined:
        return "pipelined";
    }
    return "?";
}

namespace {

std::unique_ptr<BatchExecutor>
MakeExecutor(sim::Runtime& runtime, const ServerOptions& options)
{
    if (options.executor == ExecutorKind::kPipelined) {
        return std::make_unique<PipelinedExecutor>(runtime);
    }
    return std::make_unique<SerialExecutor>(runtime);
}

/// The host op a prep group runs as.
const std::string kPrepOpName = "request_prep";

/// One batch size's placement and the profile that placement runs.
struct PricedBatch {
    dispatch::PlacementDecision decision;
    const BatchProfile* profile = nullptr;
};

/// Prices a batch of @p profile's size on @p runtime's node as the
/// executors issue it (CopiesOf, StageToIssue), with @p executor's costs of
/// issuing each copy. The device placements are charged the worst-case
/// all-miss state volume, the same bound the executors pay for uncached
/// sessions; a dispatch-time state copy prices as a leading stage with no
/// host work or kernels.
PricedBatch
PriceBatch(const dispatch::HybridDispatcher& dispatcher, ModelSession& session,
           const BatchProfile& profile, const sim::Runtime& runtime,
           const BatchExecutor& executor, bool allow_cpu)
{
    const BatchProfile& fused_profile = session.FusedProfile(profile.batch_size);
    CacheBatchCost all_miss;
    all_miss.miss_rows = profile.state_rows;
    all_miss.row_bytes = profile.state_row_bytes;
    dispatch::WorkEstimate estimate;
    estimate.batch_size = profile.batch_size;
    estimate.stages.reserve(profile.stages.size() + 1);
    const int64_t dispatch_h2d = CopiesOf(profile, all_miss).dispatch_h2d_bytes;
    if (dispatch_h2d > 0) {
        estimate.stages.push_back(
            {.h2d_bytes = dispatch_h2d,
             .copy_issue_us = executor.CopyIssueUs(dispatch_h2d)});
    }
    for (size_t s = 0; s < profile.stages.size(); ++s) {
        const StageWork stage = StageToIssue(profile, s, 0.0, all_miss);
        estimate.stages.push_back(
            {.host_us = stage.host_us,
             .h2d_bytes = stage.h2d_bytes,
             .launches = static_cast<int64_t>(stage.kernels.size()),
             .fused_launches = fused_profile.stages[s].launches,
             .copy_issue_us = executor.CopyIssueUs(stage.h2d_bytes)});
    }
    estimate.d2h_bytes = profile.d2h_bytes;
    estimate.kernels = &profile.kernels;
    estimate.fused_kernels = &fused_profile.kernels;
    estimate.launch_issue_us = runtime.Config().submit_overhead_us;
    PricedBatch priced;
    priced.decision = dispatcher.Decide(estimate, runtime.Node(), allow_cpu);
    priced.profile = priced.decision.placement == dispatch::Placement::kGpuFused
                         ? &fused_profile
                         : &profile;
    return priced;
}

}  // namespace

ServingReport
Serve(ModelSession& session, BatchPolicy& policy,
      const std::vector<sim::SimTime>& arrivals, const ServerOptions& options)
{
    std::vector<Request> requests;
    requests.reserve(arrivals.size());
    int64_t id = 0;
    for (const sim::SimTime t : arrivals) {
        requests.push_back(Request{id++, t});
    }
    return ServeRequests(session, policy, requests, options);
}

ServingReport
ServeRequests(ModelSession& session, BatchPolicy& policy,
              const std::vector<Request>& requests, const ServerOptions& options)
{
    DGNN_CHECK(std::is_sorted(requests.begin(), requests.end(),
                              [](const Request& a, const Request& b) {
                                  return a.arrival_us < b.arrival_us;
                              }),
               "arrival timestamps must be sorted");
    DGNN_CHECK(options.dispatcher == nullptr ||
                   session.Mode() == sim::ExecMode::kHybrid,
               "the hybrid dispatcher needs a hybrid session");

    // A shard runs on its own topology node; everything else on the
    // testbed pair, exactly like models::MakeRuntime(mode).
    sim::RuntimeConfig runtime_config;
    runtime_config.mode = session.Mode();
    if (options.shard_hook != nullptr) {
        runtime_config.topology = options.shard_hook->Topology();
        runtime_config.device_index = options.shard_hook->DeviceIndex();
    }
    sim::Runtime runtime{std::move(runtime_config)};
    // Nothing reads a serving runtime's per-op trace unless an observer asks
    // for it in OnRunBegin (obs::ServingObservability does); recording
    // millions of events nobody reads dominated serving host time.
    runtime.SetTracing(false);
    runtime.SetObserver(options.runtime_observer);
    const cache::CacheStats cache_stats_before = session.Cache().Stats();
    std::unique_ptr<BatchExecutor> executor = MakeExecutor(runtime, options);

    // Context/model init happen before the serving window opens; model
    // weights are assumed resident (a server loads them once).
    runtime.EnsureWarm(0);
    runtime.ResetMeasurementWindow();
    const sim::SimTime window_start = runtime.Now();

    // Every hybrid batch is placed by the one pricing mechanism: the
    // configured dispatcher, or else the device-only decision, which runs
    // whichever of the unfused and fused chains prices cheaper on this
    // node's GPU. Cache-enabled sessions never go to the host (their state
    // rows are device-resident; a host run would bypass them). A decision
    // is a pure function of the batch size's profiles and the node, so it
    // is priced once per batch size.
    const dispatch::HybridDispatcher device_only;
    const dispatch::HybridDispatcher* dispatcher = options.dispatcher;
    if (dispatcher == nullptr && session.Mode() == sim::ExecMode::kHybrid) {
        dispatcher = &device_only;
    }
    const bool allow_cpu =
        options.dispatcher != nullptr && !session.CacheEnabled();
    std::vector<std::optional<PricedBatch>> placements;

    ServingObserver* observer = options.observer;
    if (observer != nullptr) {
        RunContext ctx;
        ctx.model = session.ModelName();
        ctx.mode = sim::ToString(session.Mode());
        ctx.policy = policy.Name();
        ctx.executor = executor->Name();
        ctx.runtime = &runtime;
        ctx.cache = &session.Cache();
        ctx.window_start_us = window_start;
        observer->OnRunBegin(ctx);
    }

    ServingReport report;
    report.model = session.ModelName();
    report.mode = sim::ToString(session.Mode());
    report.policy = policy.Name();
    report.executor = executor->Name();
    report.requests = static_cast<int64_t>(requests.size());
    report.offered_qps = OfferedQps(requests);

    // Everything below runs in ABSOLUTE host time: rebasing arrivals once
    // keeps every comparison (admission, policy deadlines, idle targets) in
    // one floating-point domain. Mixing window-relative and absolute clocks
    // here can disagree by an ulp once the warm-up offset is large, and an
    // ulp of disagreement is an infinite loop in a discrete-event simulator.
    const auto n = static_cast<int64_t>(requests.size());
    std::vector<sim::SimTime> due;
    due.reserve(requests.size());
    for (const Request& r : requests) {
        due.push_back(window_start + r.arrival_us);
    }

    int64_t next_arrival = 0;
    std::deque<Request> queue;
    // The batch's unique endpoint nodes, refilled per batch.
    std::vector<int64_t> nodes;
    const sim::SimTime first_due = n > 0 ? due.front() : window_start;
    sim::SimTime last_completion = first_due;

    // Admits every request that has arrived by @p until, in arrival order.
    const auto admit = [&](sim::SimTime until) {
        while (next_arrival < n &&
               due[static_cast<size_t>(next_arrival)] <= until) {
            const sim::SimTime t = due[static_cast<size_t>(next_arrival)];
            const Request& r = requests[static_cast<size_t>(next_arrival)];
            queue.push_back(Request{next_arrival, t, r.src, r.dst});
            policy.OnArrival(t);
            if (observer != nullptr) {
                observer->OnArrival(queue.back());
            }
            ++next_arrival;
        }
    };

    // Request prep: a model that samples neighbours on the host (TGN, TGAT)
    // has each request sampled while the host would otherwise idle, so its
    // batch pays host_us(b) - PrepUs(b) + PrepUs(u) at dispatch, u members
    // still unsampled. Requests with an id below prepped_end are sampled or
    // dispatched; the rest are not. Prep cost is memoized per group size.
    const bool prep_requests = session.PrepUs(1) > 0.0;
    int64_t prepped_end = 0;
    std::vector<sim::SimTime> prep_costs;
    const auto prep_us = [&](int64_t group) {
        const auto size = static_cast<size_t>(group);
        if (prep_costs.size() <= size) {
            prep_costs.resize(size + 1, -1.0);
        }
        if (prep_costs[size] < 0.0) {
            prep_costs[size] = session.PrepUs(group);
        }
        return prep_costs[size];
    };

    while (next_arrival < n || !queue.empty()) {
        const sim::SimTime now = runtime.Now();

        admit(now);

        const bool stream_ended = next_arrival >= n;
        const BatchDecision decision = policy.Decide(queue, now, stream_ended);

        if (decision.dispatch > 0) {
            DGNN_CHECK(decision.dispatch <= static_cast<int64_t>(queue.size()),
                       "policy dispatched more requests than queued");
            report.queue_depth.Record(static_cast<double>(queue.size()));
            report.batch_size.Record(static_cast<double>(decision.dispatch));

            const BatchProfile& profile = session.Profile(decision.dispatch);

            // Predict-then-place (src/dispatch/): every batch of a hybrid
            // session is priced on this runtime's node and runs the chain
            // its placement names — the unfused or the fused profile, or
            // the unfused one on the host.
            const BatchProfile* exec_profile = &profile;
            dispatch::Placement placement = dispatch::Placement::kGpu;
            const dispatch::PlacementDecision* placed = nullptr;
            if (dispatcher != nullptr) {
                const auto size = static_cast<size_t>(decision.dispatch);
                if (placements.size() <= size) {
                    placements.resize(size + 1);
                }
                std::optional<PricedBatch>& memo = placements[size];
                if (!memo.has_value()) {
                    memo = PriceBatch(*dispatcher, session, profile, runtime,
                                      *executor, allow_cpu);
                }
                placed = &memo->decision;
                placement = placed->placement;
                exec_profile = memo->profile;
                ++report.placement_batches[static_cast<size_t>(placement)];
            }

            // Resolve the batch's state gather against the session's live
            // cache (warm across batches and runs). Blind endpoints (a
            // src or dst of -1) are charged their share of the probe's
            // all-miss state volume, so transfer accounting never silently
            // drops state movement — not even in mixed or half-blind
            // batches.
            CacheBatchCost cache_cost;
            ExchangeCost exchange;
            // The shard hook needs the batch's unique nodes even for
            // uncached sessions (sharded read-only feature tables still pay
            // the exchange); without a hook the collection stays gated on
            // the cache exactly as before.
            const bool want_nodes =
                session.CacheEnabled() || options.shard_hook != nullptr;
            nodes.clear();
            int64_t blind_endpoints = 0;
            if (want_nodes) {
                for (int64_t i = 0; i < decision.dispatch; ++i) {
                    const Request& r = queue[static_cast<size_t>(i)];
                    for (const int64_t node : {r.src, r.dst}) {
                        if (node >= 0) {
                            nodes.push_back(node);
                        } else {
                            ++blind_endpoints;
                        }
                    }
                }
                cache::SortUnique(nodes);
            }
            if (options.shard_hook != nullptr) {
                // Remote-owned nodes leave the batch's local gather; their
                // rows arrive through the exchange issued below.
                (void)options.shard_hook->ClaimRemote(nodes);
            }
            if (session.CacheEnabled()) {
                cache_cost.row_bytes = profile.state_row_bytes;
                if (!nodes.empty()) {
                    const cache::GatherResult g = session.Cache().Gather(
                        nodes, runtime.HasObserver() ? &cache_cost.row_trace
                                                     : nullptr);
                    cache_cost.hit_rows = g.hit_rows;
                    cache_cost.miss_rows = g.miss_rows;
                    cache_cost.writeback_rows = g.writeback_rows;
                    cache_cost.writes_back_own_rows = g.evicted_own_row;
                }
                // Pro-rated all-miss charge for the endpoints the cache
                // cannot see (the probe's state_rows cover a full batch's
                // 2 * batch_size endpoints' worth of unique state);
                // ceiling division so a small blind share never truncates
                // to a free ride. Rows the cache never admitted also pay
                // their sync-back per batch, like the uncached baseline.
                const int64_t blind_rows =
                    blind_endpoints == 0
                        ? 0
                        : (blind_endpoints * profile.state_rows +
                           2 * profile.batch_size - 1) /
                              (2 * profile.batch_size);
                cache_cost.miss_rows += blind_rows;
                cache_cost.writeback_rows += blind_rows;
                cache_cost.writes_back_own_rows |= blind_rows > 0;
            }

            if (options.shard_hook != nullptr) {
                // The exchange lands on the run's streams ahead of the
                // batch's own work, so stream ordering alone serializes
                // them; an empty claim issues nothing (1-shard identity).
                exchange = options.shard_hook->IssueExchange(runtime);
                report.exchange += exchange;
            }

            // Requests are sampled in arrival order, so the members sampled
            // ahead of dispatch are the batch's first `prepped`; the host
            // stage samples only the rest.
            const int64_t first_id = queue.front().id;
            const int64_t prepped = std::clamp<int64_t>(
                prepped_end - first_id, 0, decision.dispatch);
            prepped_end = std::max(prepped_end, first_id + decision.dispatch);
            sim::SimTime prep_credit = 0.0;
            if (prepped > 0) {
                const int64_t unsampled = decision.dispatch - prepped;
                prep_credit = prep_us(decision.dispatch) -
                              (unsampled > 0 ? prep_us(unsampled) : 0.0);
            }

            BatchSpans spans;
            const sim::SimTime completion = executor->SubmitPlaced(
                placement, *exec_profile, prep_credit, cache_cost,
                observer != nullptr ? &spans : nullptr);
            last_completion = std::max(last_completion, completion);
            BatchObservation ob;
            if (observer != nullptr) {
                // Member requests must be copied BEFORE the pops below
                // retire them from the queue.
                ob.batch_index = report.batches;
                ob.queue_depth = static_cast<int64_t>(queue.size());
                ob.spans = spans;
                ob.cache_cost = cache_cost;
                ob.exchange = exchange;
                ob.profile = exec_profile;
                ob.prepped_requests = prepped;
                ob.prep_credit_us = prep_credit;
                if (placed != nullptr) {
                    ob.decision = *placed;
                }
                ob.requests.assign(queue.begin(),
                                   queue.begin() + decision.dispatch);
            }
            for (int64_t i = 0; i < decision.dispatch; ++i) {
                report.latency.Record(completion - queue.front().arrival_us);
                queue.pop_front();
            }
            ++report.batches;
            if (observer != nullptr) {
                observer->OnBatch(ob);
            }
            continue;
        }

        // Nothing to dispatch: idle to the next actionable instant, the
        // policy's wake or the arrival that lifts the queue to its
        // min_depth (the stream's last arrival ends it, so it counts too).
        // Arrivals before that one cannot change the decision; admission
        // above still takes each of them in order. Both candidate wake
        // targets are strictly in the future (admission consumed arrivals
        // <= now; policies only schedule wakes beyond now), so the idle
        // below always advances the clock.
        sim::SimTime wake = decision.wake_us;
        if (next_arrival < n) {
            const int64_t short_by = std::max<int64_t>(
                decision.min_depth - static_cast<int64_t>(queue.size()), 1);
            const int64_t forming =
                next_arrival + std::min(short_by, n - next_arrival) - 1;
            wake = std::min(wake, due[static_cast<size_t>(forming)]);
        }
        DGNN_CHECK(wake < kNoWake,
                   "batch policy stalled: no dispatch and nothing to wake for");
        if (observer != nullptr) {
            // A wake at the policy's own deadline is a timeout flush in the
            // making; a wake at a batch-forming arrival is the server going
            // idle.
            observer->OnIdleWake(wake, wake == decision.wake_us);
        }
        // Until the wake, the free host samples every queued request not
        // yet sampled as one group, admitting the window's arrivals as each
        // group starts. No group starts at or after the wake: there the
        // policy decides first, and the loop that wakes on every arrival
        // runs exactly these groups. A group may run past the wake.
        sim::CategoryScope idle_scope(runtime, "Serving Idle");
        while (prep_requests && prepped_end < n) {
            const sim::SimTime start = std::max(
                runtime.Now(), due[static_cast<size_t>(prepped_end)]);
            if (start >= wake) {
                break;
            }
            admit(start);
            runtime.IdleUntil(start);
            sim::CategoryScope prep_scope(runtime, "Serving Prep");
            runtime.RunHostFor(kPrepOpName, prep_us(next_arrival - prepped_end));
            prepped_end = next_arrival;
        }
        runtime.IdleUntil(wake);
        DGNN_CHECK(runtime.Now() > now, "serving loop failed to advance");
    }

    executor->Drain();
    // End-of-run sync of the host-side store, like the offline models'
    // flush: every dirty row still resident pays its write-back exactly
    // once (DESIGN.md §8 — on eviction or here). The rows stay resident,
    // so a follow-up run over the same session starts warm and clean.
    if (session.CacheEnabled()) {
        std::vector<std::string> flushed;
        const int64_t flushed_rows = session.Cache().FlushDirty(
            runtime.HasObserver() ? &flushed : nullptr);
        sim::AccessSet access;
        access.reads = std::move(flushed);
        access.writes.emplace_back("host_store");
        sim::AccessScope access_scope(runtime, std::move(access));
        runtime.WriteBackToHost(flushed_rows, session.Cache().RowBytes(),
                                "serve_state_flush");
    }
    if (observer != nullptr) {
        observer->OnRunEnd();
    }
    report.makespan_us = last_completion - first_due;
    if (report.makespan_us > 0.0) {
        report.achieved_qps =
            static_cast<double>(report.requests) / report.makespan_us * 1e6;
    }
    report.h2d_bytes = runtime.BytesToDevice();
    report.d2h_bytes = runtime.BytesToHost();
    report.cache_hit_bytes = runtime.CacheHitBytes();
    report.cache_stats = session.Cache().Stats() - cache_stats_before;
    return report;
}

QpsSearchResult
FindCapacity(ModelSession& session,
             const std::function<std::unique_ptr<BatchPolicy>()>& make_policy,
             const ServerOptions& options, uint64_t seed)
{
    QpsSearchResult result;
    // Both halves of the definition (server.hpp). Every sustained probe
    // raises the bracket's floor, so the last one is the answer.
    auto sustained = [&](double rate) {
        std::unique_ptr<BatchPolicy> policy = make_policy();
        const ServingReport report = Serve(
            session, *policy,
            PoissonArrivals(rate, kCapacityProbeRequests, seed), options);
        ++result.evaluations;
        const bool ok =
            report.latency.P99() <= kCapacitySloUs &&
            report.achieved_qps >= kCapacityKeepUpShare * report.offered_qps;
        if (ok) {
            result.max_qps = rate;
            result.p99_us = report.latency.P99();
        }
        return ok;
    };

    // Double from the floor until a probe breaks, then bisect the bracket.
    double lo = kCapacityFloorQps;
    double hi = 2.0 * lo;
    if (!sustained(lo)) {
        return result;  // even the floor is not sustained: n/a
    }
    for (int steps = 1; steps < kCapacityMaxSteps && sustained(hi); ++steps) {
        lo = hi;
        hi *= 2.0;
    }
    while (hi - lo > kCapacityResolution * lo) {
        const double mid = 0.5 * (lo + hi);
        (sustained(mid) ? lo : hi) = mid;
    }
    return result;
}

}  // namespace dgnn::serve
