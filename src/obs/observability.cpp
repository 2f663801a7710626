#include "obs/observability.hpp"

#include <array>
#include <sstream>
#include <utility>

#include "core/bench_json_writer.hpp"
#include "support/check.hpp"

namespace dgnn::obs {

ServingObservability::ServingObservability(ObservabilityOptions options)
    : options_(options), windows_(options.window_us)
{
}

void
ServingObservability::OnRunBegin(const serve::RunContext& ctx)
{
    DGNN_CHECK(ctx.runtime != nullptr, "run context carries no runtime");
    ctx_ = ctx;
    run_active_ = true;
    ++runs_observed_;
    run_labels_ = {{"model", ctx.model},
                   {"mode", ctx.mode},
                   {"policy", ctx.policy},
                   {"executor", ctx.executor}};
    // A serving runtime records no trace until something reads it: only a
    // kept device trace does, so turn tracing on for it before any
    // serving-window op is issued, then plant the cursor past whatever
    // warm-up left so the copy covers only serving-window events.
    if (options_.keep_device_trace) {
        ctx.runtime->SetTracing(true);
        trace_cursor_ = ctx.runtime->GetTrace().Size();
    }
    cache_before_ =
        ctx.cache != nullptr ? ctx.cache->Stats() : cache::CacheStats{};
    h2d_bytes_before_ = ctx.runtime->BytesToDevice();
    d2h_bytes_before_ = ctx.runtime->BytesToHost();
    sync_wait_before_ = ctx.runtime->SyncWaitTime();
    transfer_time_before_ = ctx.runtime->TransferTime();
    kernels_before_ = ctx.runtime->KernelLaunches();
    occupancy_before_ = ctx.runtime->KernelOccupancySum();
    windows_.SetOrigin(ctx.window_start_us);
}

void
ServingObservability::OnArrival(const serve::Request& request)
{
    metrics_.CounterAdd("dgnn_serve_requests_total", 1.0, run_labels_);
    windows_.OnArrival(request.arrival_us);
}

void
ServingObservability::OnIdleWake(sim::SimTime /*wake_us*/, bool policy_wake)
{
    Labels labels = run_labels_;
    labels.emplace_back("kind", policy_wake ? "policy" : "arrival");
    metrics_.CounterAdd("dgnn_serve_idle_wakes_total", 1.0, labels);
}

void
ServingObservability::OnBatch(const serve::BatchObservation& ob)
{
    const serve::BatchSpans& s = ob.spans;
    const auto members = static_cast<double>(ob.requests.size());

    metrics_.CounterAdd("dgnn_serve_batches_total", 1.0, run_labels_);
    metrics_.CounterAdd("dgnn_serve_completions_total", members, run_labels_);
    metrics_.SummaryObserve("dgnn_serve_queue_depth",
                            static_cast<double>(ob.queue_depth), run_labels_);
    metrics_.SummaryObserve("dgnn_serve_batch_size", members, run_labels_);

    // Batch-level stage durations as labeled summaries (one series per
    // stage — the jitter gauges of the span model).
    const std::array<std::pair<const char*, double>, 5> stages = {{
        {"stall", s.stall_done_us - s.dispatch_us},
        {"host", s.host_done_us - s.stall_done_us},
        {"h2d", s.h2d_done_us - s.host_done_us},
        {"compute", s.compute_done_us - s.h2d_done_us},
        {"d2h", s.complete_us - s.compute_done_us},
    }};
    for (const auto& [stage, duration] : stages) {
        Labels labels = run_labels_;
        labels.emplace_back("stage", stage);
        metrics_.SummaryObserve("dgnn_serve_stage_us", duration, labels);
    }
    // How long the batch's input copies and kernels ran, beside the stage
    // chain that counts the part of them under later host stages as host.
    const std::array<std::pair<const char*, double>, 2> busy = {{
        {"h2d", s.h2d_busy_us},
        {"compute", s.compute_busy_us},
    }};
    for (const auto& [stage, duration] : busy) {
        Labels labels = run_labels_;
        labels.emplace_back("stage", stage);
        metrics_.SummaryObserve("dgnn_serve_busy_us", duration, labels);
    }

    const int64_t h2d_bytes =
        (ob.profile != nullptr ? ob.profile->h2d_bytes : 0) +
        ob.cache_cost.miss_rows * ob.cache_cost.row_bytes;
    const int64_t d2h_bytes =
        (ob.profile != nullptr ? ob.profile->d2h_bytes : 0) +
        ob.cache_cost.WritebackBytes();
    metrics_.CounterAdd("dgnn_serve_h2d_bytes_total",
                        static_cast<double>(h2d_bytes), run_labels_);
    metrics_.CounterAdd("dgnn_serve_d2h_bytes_total",
                        static_cast<double>(d2h_bytes), run_labels_);
    metrics_.CounterAdd("dgnn_serve_prepped_requests_total",
                        static_cast<double>(ob.prepped_requests), run_labels_);
    metrics_.CounterAdd("dgnn_serve_prep_us_total", ob.prep_credit_us,
                        run_labels_);
    metrics_.CounterAdd("dgnn_cache_hit_rows_total",
                        static_cast<double>(ob.cache_cost.hit_rows),
                        run_labels_);
    metrics_.CounterAdd("dgnn_cache_miss_rows_total",
                        static_cast<double>(ob.cache_cost.miss_rows),
                        run_labels_);
    metrics_.CounterAdd("dgnn_cache_writeback_rows_total",
                        static_cast<double>(ob.cache_cost.writeback_rows),
                        run_labels_);

    for (const serve::Request& r : ob.requests) {
        windows_.OnCompletion(s.complete_us, s.complete_us - r.arrival_us);
    }
    windows_.OnBatch(s.complete_us, h2d_bytes, d2h_bytes,
                     ob.cache_cost.hit_rows, ob.cache_cost.miss_rows);

    timeline_.RecordBatch(ob);
    attribution_.OnBatch(ob);
    batch_spans_.push_back(s);
}

void
ServingObservability::OnRunEnd()
{
    if (!run_active_) {
        return;
    }
    run_active_ = false;
    sim::Runtime& runtime = *ctx_.runtime;

    // Runtime counter deltas over the run (cursor-snapshot style: the
    // runtime never learns about obs/).
    metrics_.CounterAdd(
        "dgnn_sim_h2d_bytes_total",
        static_cast<double>(runtime.BytesToDevice() - h2d_bytes_before_),
        run_labels_);
    metrics_.CounterAdd(
        "dgnn_sim_d2h_bytes_total",
        static_cast<double>(runtime.BytesToHost() - d2h_bytes_before_),
        run_labels_);
    metrics_.GaugeSet("dgnn_sim_sync_wait_us",
                      runtime.SyncWaitTime() - sync_wait_before_, run_labels_);
    metrics_.GaugeSet("dgnn_sim_transfer_time_us",
                      runtime.TransferTime() - transfer_time_before_,
                      run_labels_);

    // Kernel launches and occupancy from the runtime's counters, and the
    // kept device trace from the cursor.
    const int64_t kernels = runtime.KernelLaunches() - kernels_before_;
    const double occupancy_sum =
        runtime.KernelOccupancySum() - occupancy_before_;
    if (options_.keep_device_trace) {
        const std::vector<sim::TraceEvent>& events =
            runtime.GetTrace().Events();
        device_events_.insert(
            device_events_.end(),
            events.begin() + static_cast<std::ptrdiff_t>(trace_cursor_),
            events.end());
    }
    metrics_.CounterAdd("dgnn_sim_kernel_launches_total",
                        static_cast<double>(kernels), run_labels_);
    metrics_.GaugeSet(
        "dgnn_sim_kernel_occupancy_mean",
        kernels > 0 ? occupancy_sum / static_cast<double>(kernels) : 0.0,
        run_labels_);

    // Cache stats delta (evictions/insertions the per-batch GatherResults
    // cannot see arrive here).
    if (ctx_.cache != nullptr) {
        const cache::CacheStats delta = ctx_.cache->Stats() - cache_before_;
        metrics_.CounterAdd("dgnn_cache_evictions_total",
                            static_cast<double>(delta.evictions), run_labels_);
        metrics_.CounterAdd("dgnn_cache_insertions_total",
                            static_cast<double>(delta.insertions), run_labels_);
        metrics_.CounterAdd("dgnn_cache_lookups_total",
                            static_cast<double>(delta.lookups), run_labels_);
    }
}

std::string
ServingObservability::MergedChromeTraceJson() const
{
    using core::JsonEscape;
    std::ostringstream oss;
    oss << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&oss, &first](const std::string& name, const std::string& cat,
                               const std::string& tid, int pid,
                               sim::SimTime start, sim::SimTime dur) {
        if (!first) {
            oss << ",";
        }
        first = false;
        oss << "{\"name\":\"" << JsonEscape(name) << "\",\"cat\":\""
            << JsonEscape(cat) << "\",\"ph\":\"X\",\"ts\":" << start
            << ",\"dur\":" << dur << ",\"pid\":" << pid << ",\"tid\":\""
            << JsonEscape(tid) << "\"}";
    };

    // pid 1: the simulated device/host lanes (same shape as
    // core::ToChromeTraceJson, one tid per device).
    for (const sim::TraceEvent& e : device_events_) {
        emit(e.name, e.category, e.device, 1, e.start_us,
             e.end_us - e.start_us);
    }

    // pid 2: serving-stage lanes, one slice per batch per stage.
    for (size_t b = 0; b < batch_spans_.size(); ++b) {
        const serve::BatchSpans& s = batch_spans_[b];
        const std::string batch_name = "batch " + std::to_string(b);
        const std::array<std::pair<const char*,
                                   std::pair<sim::SimTime, sim::SimTime>>,
                         5>
            stages = {{
                {"serve:stall", {s.dispatch_us, s.stall_done_us}},
                {"serve:host", {s.stall_done_us, s.host_done_us}},
                {"serve:h2d", {s.host_done_us, s.h2d_done_us}},
                {"serve:compute", {s.h2d_done_us, s.compute_done_us}},
                {"serve:d2h", {s.compute_done_us, s.complete_us}},
            }};
        for (const auto& [tid, span] : stages) {
            if (span.second > span.first) {
                emit(batch_name, "serving", tid, 2, span.first,
                     span.second - span.first);
            }
        }
    }

    // pid 2, request lane: one slice per request lifetime.
    for (const RequestRecord& rec : timeline_.Records()) {
        emit("req " + std::to_string(rec.id), "request", "serve:requests", 2,
             rec.arrival_us, rec.LatencyUs());
    }

    oss << "]}";
    return oss.str();
}

}  // namespace dgnn::obs
