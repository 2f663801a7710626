#pragma once

/// @file
/// Event trace recorded by the runtime — the simulated equivalent of an
/// NVIDIA Nsight Systems timeline. Analysis utilities (breakdowns,
/// utilization timelines, chrome-trace export) live in core/. Code that
/// needs what a run issued reads sim::OpRecord through a RuntimeObserver.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_time.hpp"

namespace dgnn::sim {

/// What kind of activity a trace event records.
enum class EventKind {
    kKernel,    ///< Device compute kernel.
    kTransfer,  ///< PCIe copy (either direction).
    kHostOp,    ///< Host-side (CPU thread) operation.
    kSync,      ///< Host blocked waiting for a device.
    kMarker,    ///< Zero-cost annotation (phase boundaries, warm-up stages).
};

const char* ToString(EventKind kind);

/// Direction of a transfer event.
enum class CopyDirection {
    kHostToDevice,
    kDeviceToHost,
    kNone,
};

/// One timeline entry.
struct TraceEvent {
    EventKind kind = EventKind::kMarker;
    /// Kernel/op name ("gemm", "h2d", "gather:cache_miss_h2d", ...).
    std::string name;
    /// Module category (sim::CategoryScope) active at issue time ("GNN", ...).
    std::string category;
    /// Device name the event ran on ("RTX A6000", "Xeon Gold 6226R", "PCIe").
    std::string device;
    SimTime start_us = 0.0;
    SimTime end_us = 0.0;
    /// Occupancy for kernels (0 for other kinds).
    double occupancy = 0.0;
    int64_t flops = 0;
    int64_t bytes = 0;
    CopyDirection direction = CopyDirection::kNone;
};

/// Append-only event log for one run.
class Trace {
  public:
    void Add(TraceEvent event) { events_.push_back(std::move(event)); }

    const std::vector<TraceEvent>& Events() const { return events_; }
    size_t Size() const { return events_.size(); }
    bool Empty() const { return events_.empty(); }
    void Clear() { events_.clear(); }

  private:
    std::vector<TraceEvent> events_;
};

}  // namespace dgnn::sim
