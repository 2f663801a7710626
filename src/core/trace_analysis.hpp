#pragma once

/// @file
/// Analysis utilities over the simulated trace — the Nsight-Systems side of
/// the methodology: utilization timelines, per-device activity, transfer
/// accounting, and chrome-trace export for visual inspection.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace dgnn::core {

/// One bin of a utilization timeline.
struct UtilizationSample {
    sim::SimTime t_us = 0.0;   ///< Bin start time.
    double utilization_pct = 0.0;
};

/// Utilization of @p device over [t0, t1) in fixed bins. By default this is
/// the nvidia-smi-style kernel-residency fraction (what the paper plots);
/// set @p occupancy_weighted for SM-level utilization.
std::vector<UtilizationSample> UtilizationTimeline(const sim::Trace& trace,
                                                   const std::string& device,
                                                   sim::SimTime t0, sim::SimTime t1,
                                                   sim::SimTime bin_us,
                                                   bool occupancy_weighted = false);

/// Bytes moved in @p direction within [t0, t1).
int64_t TransferredBytes(const sim::Trace& trace, sim::CopyDirection direction,
                         sim::SimTime t0, sim::SimTime t1);

/// Serializes the trace to chrome://tracing JSON ("traceEvents" array).
std::string ToChromeTraceJson(const sim::Trace& trace);

}  // namespace dgnn::core
