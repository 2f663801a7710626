#pragma once

/// @file
/// Kernel descriptor and the analytic cost model mapping a descriptor onto a
/// DeviceSpec. The cost model is the heart of the simulator:
///
///   occ      = clamp(parallel_items / saturation_items, occ_floor, 1)
///   t_comp   = flops / (peak_gflops * 1e3 * occ)                     [us]
///   t_mem    = bytes / (mem_bw_gbps * 1e3 * min(1, 4*occ) / penalty) [us]
///   duration = launch_overhead + max(t_comp, t_mem)
///
/// Low parallelism (temporal data dependencies!) therefore yields low
/// occupancy, launch-overhead-dominated kernels, and low device utilization,
/// which is precisely the paper's bottleneck no. 1.

#include <cstdint>
#include <string>

#include "sim/device_spec.hpp"

namespace dgnn::sim {

/// One unit of device work (a kernel on GPU, an op/parallel region on CPU).
struct KernelDesc {
    /// Kernel name, e.g. "gemm" or "temporal_sample".
    std::string name;

    /// Floating-point operations performed.
    int64_t flops = 0;

    /// Bytes moved to/from device memory.
    int64_t bytes = 0;

    /// Independent parallel work items exposed by the kernel.
    int64_t parallel_items = 1;

    /// True when the access pattern is data-dependent/random (graph
    /// sampling, gather/scatter); derates effective bandwidth.
    bool irregular = false;

    /// The part of @c bytes that is module parameters (weights and biases),
    /// in [0, bytes]. The cost model never reads it; sim::Collapse does, to
    /// price a device loop that keeps its weights on-chip across steps.
    int64_t weight_bytes = 0;
};

/// Fraction of the device the kernel occupies, in (0, 1].
double Occupancy(const DeviceSpec& spec, const KernelDesc& kernel);

/// Execution time excluding launch overhead, microseconds.
SimTime ComputeTime(const DeviceSpec& spec, const KernelDesc& kernel);

/// Total duration including launch overhead, microseconds.
SimTime KernelDuration(const DeviceSpec& spec, const KernelDesc& kernel);

}  // namespace dgnn::sim
