#include "sim/device_spec.hpp"

namespace dgnn::sim {

DeviceSpec
DeviceSpec::XeonGold6226R()
{
    DeviceSpec spec;
    spec.name = "Xeon Gold 6226R";
    spec.kind = DeviceKind::kCpu;
    // 16 cores x 2.9 GHz x AVX-512 FMA; derated to framework-effective GEMM
    // throughput (eager-mode PyTorch sustains a small fraction of peak on
    // the small matrices DGNN inference produces).
    spec.peak_gflops = 70.0;
    spec.mem_bw_gbps = 80.0;
    // Eager-mode per-op dispatch cost on CPU (framework overhead).
    spec.launch_overhead_us = 2.0;
    // All 16 cores saturated once a kernel exposes ~4K independent items.
    spec.saturation_items = 4096;
    // A single-threaded op still gets one core: 1/16 of the device.
    spec.occupancy_floor = 1.0 / 16.0;
    spec.irregular_penalty = 6.0;
    spec.memory_bytes = 192LL * 1024 * 1024 * 1024;
    spec.context_init_us = 0.0;
    spec.model_init_fixed_us = 6000.0;
    spec.model_init_per_mb_us = 60.0;
    spec.alloc_fixed_us = 3.0;
    spec.alloc_per_mb_us = 0.08;
    return spec;
}

DeviceSpec
DeviceSpec::RtxA6000()
{
    DeviceSpec spec;
    spec.name = "RTX A6000";
    spec.kind = DeviceKind::kGpu;
    // 84 SMs; fp32 peak 38.7 TFLOP/s derated to sustained GEMM throughput.
    spec.peak_gflops = 19000.0;
    spec.mem_bw_gbps = 600.0;
    // CUDA kernel launch + driver submit under eager execution.
    spec.launch_overhead_us = 6.0;
    // Full occupancy needs ~84 SMs x 2048 resident threads of useful work.
    spec.saturation_items = 160000;
    // A tiny kernel still runs on one SM: 1/84 of the device.
    spec.occupancy_floor = 1.0 / 84.0;
    spec.irregular_penalty = 2.5;
    spec.memory_bytes = 48LL * 1024 * 1024 * 1024;
    // Lazy CUDA context creation (first API call).
    spec.context_init_us = 1.8e6;
    // Module setup / stream capture on GPU is far slower than on CPU
    // (paper section 4.4: 40x - 937x CPU model-init time).
    spec.model_init_fixed_us = 4.2e6;
    spec.model_init_per_mb_us = 9000.0;
    // Per-run allocator warm-up: caching-allocator pool growth plus
    // first-iteration kernel autotuning (Table 2 of the paper measures this
    // at ~5.5 ms fixed, growing with the working set).
    spec.alloc_fixed_us = 5300.0;
    spec.alloc_per_mb_us = 400.0;
    return spec;
}

}  // namespace dgnn::sim
