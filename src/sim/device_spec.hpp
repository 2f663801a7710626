#pragma once

/// @file
/// Parametric performance model of a compute device. Two calibrated presets
/// match the paper's testbed: an Intel Xeon Gold 6226R CPU and an NVIDIA RTX
/// A6000 GPU. The parameters are analytic-model inputs, not measurements of
/// this host; see DESIGN.md section 5.

#include <cstdint>
#include <string>

#include "sim/sim_time.hpp"

namespace dgnn::sim {

/// Which side of the PCIe link a device sits on.
enum class DeviceKind {
    kCpu,
    kGpu,
};

/// Analytic performance description of one device.
struct DeviceSpec {
    std::string name;
    DeviceKind kind = DeviceKind::kCpu;

    /// Aggregate fp32 throughput at full occupancy, in GFLOP/s.
    double peak_gflops = 0.0;

    /// Streaming memory bandwidth in GB/s.
    double mem_bw_gbps = 0.0;

    /// Fixed cost to dispatch one kernel/op (driver + launch), microseconds.
    SimTime launch_overhead_us = 0.0;

    /// Parallel work items needed to reach occupancy 1.0.
    int64_t saturation_items = 1;

    /// Minimum occupancy a non-empty kernel achieves (one SM / one core).
    double occupancy_floor = 1.0;

    /// Derating factor applied to bandwidth for irregular (random) access.
    double irregular_penalty = 1.0;

    /// Device memory capacity in bytes.
    int64_t memory_bytes = 0;

    /// One-time lazy context creation cost (CUDA deferred init), us.
    SimTime context_init_us = 0.0;

    /// Model initialization (stream capture / module setup): fixed part, us.
    SimTime model_init_fixed_us = 0.0;

    /// Model initialization: per-MB-of-weights part, us/MB.
    SimTime model_init_per_mb_us = 0.0;

    /// Per-run allocator warm-up: fixed part, us.
    SimTime alloc_fixed_us = 0.0;

    /// Per-run allocator warm-up: per MB of working set, us/MB.
    SimTime alloc_per_mb_us = 0.0;

    /// Xeon Gold 6226R-class CPU model (16 cores, AVX-512).
    static DeviceSpec XeonGold6226R();

    /// RTX A6000-class GPU model (84 SMs, 48 GB).
    static DeviceSpec RtxA6000();
};

}  // namespace dgnn::sim
