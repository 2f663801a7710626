#pragma once

/// @file
/// The serving observability facade: a serve::ServingObserver that fans
/// every hook out to the layer's components —
///
///   * MetricsRegistry       labeled counters/gauges/summaries, exported
///                           as Prometheus text or schema-stable JSON;
///   * RequestTimeline       per-request span records with the
///                           conservation invariant;
///   * WindowedMetrics       fixed-interval QPS/latency/hit-rate series;
///   * BottleneckAttributor  per-batch Fig 6/7-style classification.
///
/// Attach one instance through ServerOptions::observer. The observer only
/// READS serving state: the lower layers (sim/, cache/) never depend on
/// obs/ — instead the observer pulls from them, snapshotting the runtime's
/// counters and cache stats at run begin and diffing at run end (so
/// warm-up stays out of the run's figures). A serving runtime records no
/// trace unless asked; only a kept device trace (keep_device_trace) needs
/// one, so only then does OnRunBegin turn its tracing on and plant a
/// cursor to copy the run's events from — the one write the observer
/// makes, and one that changes no simulated figure. One instance may observe several sequential runs; run-scoped
/// metric labels (model, mode, policy, executor) keep the series apart.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/request_timeline.hpp"
#include "obs/windowed_metrics.hpp"
#include "serve/observer.hpp"

namespace dgnn::obs {

/// Facade knobs.
struct ObservabilityOptions {
    /// Windowed-aggregation interval, us.
    sim::SimTime window_us = 100000.0;
    /// Trace the run and copy the runtime's device trace events at run end
    /// (needed for the merged chrome-trace export). Every metric reads the
    /// same either way; off, the run records no per-op trace.
    bool keep_device_trace = true;
};

/// The composite observer.
class ServingObservability : public serve::ServingObserver {
  public:
    explicit ServingObservability(ObservabilityOptions options = {});

    // --- serve::ServingObserver ------------------------------------------
    void OnRunBegin(const serve::RunContext& ctx) override;
    void OnArrival(const serve::Request& request) override;
    void OnIdleWake(sim::SimTime wake_us, bool policy_wake) override;
    void OnBatch(const serve::BatchObservation& ob) override;
    void OnRunEnd() override;

    // --- components -------------------------------------------------------
    MetricsRegistry& Metrics() { return metrics_; }
    const MetricsRegistry& Metrics() const { return metrics_; }
    const RequestTimeline& Timeline() const { return timeline_; }
    const BottleneckAttributor& Attribution() const { return attribution_; }
    const WindowedMetrics& Windows() const { return windows_; }

    /// Chrome-trace (chrome://tracing / Perfetto) JSON merging the request
    /// span lanes with the device timeline: pid 1 carries the simulated
    /// device/host lanes (as core::ToChromeTraceJson emits them), pid 2
    /// carries one lane per serving stage with a slice per batch plus a
    /// request lane with one slice per request lifetime. All strings pass
    /// through core::JsonEscape.
    std::string MergedChromeTraceJson() const;

    int64_t RunsObserved() const { return runs_observed_; }

  private:
    ObservabilityOptions options_;

    // Run-scoped state, reset at each OnRunBegin.
    serve::RunContext ctx_;
    Labels run_labels_;
    bool run_active_ = false;
    size_t trace_cursor_ = 0;
    cache::CacheStats cache_before_;
    int64_t h2d_bytes_before_ = 0;
    int64_t d2h_bytes_before_ = 0;
    sim::SimTime sync_wait_before_ = 0.0;
    sim::SimTime transfer_time_before_ = 0.0;
    int64_t kernels_before_ = 0;
    double occupancy_before_ = 0.0;

    MetricsRegistry metrics_;
    RequestTimeline timeline_;
    BottleneckAttributor attribution_;
    WindowedMetrics windows_;
    /// Batch stage boundaries in arrival order (for the merged trace).
    std::vector<serve::BatchSpans> batch_spans_;
    /// Device/host trace events copied at run end.
    std::vector<sim::TraceEvent> device_events_;
    int64_t runs_observed_ = 0;
};

}  // namespace dgnn::obs
