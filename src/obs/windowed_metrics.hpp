#pragma once

/// @file
/// Fixed-interval windowed aggregation: the time axis (relative to the
/// serving window's opening) is cut into equal windows, and every
/// observation — arrival, completion, batch transfer, cache outcome — is
/// binned into the window containing its timestamp. The result is a
/// deterministic time series of QPS / p50 / p99 / hit-rate / PCIe volume
/// per window, which is what makes non-stationary scenarios (flash
/// crowds, hotset drift) legible: a scalar report averages the regimes
/// away, the window series shows the transition.
///
/// Completions are binned at their completion time and latency quantiles
/// are over the requests COMPLETED in the window (the standard dashboard
/// semantics, not arrival-cohort semantics).

#include <cstdint>
#include <vector>

#include "core/latency_histogram.hpp"
#include "sim/sim_time.hpp"

namespace dgnn::obs {

/// Aggregates of one window.
struct WindowStats {
    int64_t index = 0;
    /// Window start, us, relative to the configured origin.
    sim::SimTime start_us = 0.0;
    int64_t arrivals = 0;
    int64_t completions = 0;
    int64_t batches = 0;
    int64_t h2d_bytes = 0;
    int64_t d2h_bytes = 0;
    int64_t cache_hit_rows = 0;
    int64_t cache_miss_rows = 0;
    /// Latency of requests completed in this window.
    core::LatencyHistogram latency;

    /// Completions over the window length, 1/s.
    double Qps(sim::SimTime window_us) const;
    /// Hit rows over gathered rows; 0 with no gathers.
    double HitRate() const;
};

/// Bins observations into fixed windows.
class WindowedMetrics {
  public:
    /// @param window_us  window length; must be positive.
    explicit WindowedMetrics(sim::SimTime window_us);

    /// Sets the time origin (window 0 starts here). Call once, before the
    /// first observation; timestamps earlier than the origin clamp into
    /// window 0.
    void SetOrigin(sim::SimTime origin_us) { origin_us_ = origin_us; }

    void OnArrival(sim::SimTime t_us);
    void OnCompletion(sim::SimTime t_us, double latency_us);
    /// Batch-level volumes, binned at the batch's completion time.
    void OnBatch(sim::SimTime t_us, int64_t h2d_bytes, int64_t d2h_bytes,
                 int64_t hit_rows, int64_t miss_rows);

    /// All windows from 0 through the latest observed, contiguous (quiet
    /// windows appear with zero counts).
    const std::vector<WindowStats>& Windows() const { return windows_; }

    void Clear() { windows_.clear(); }

  private:
    WindowStats& WindowFor(sim::SimTime t_us);

    sim::SimTime window_us_;
    sim::SimTime origin_us_ = 0.0;
    std::vector<WindowStats> windows_;
};

}  // namespace dgnn::obs
