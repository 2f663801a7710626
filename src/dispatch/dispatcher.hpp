#pragma once

/// @file
/// Per-batch hybrid dispatch: predict-then-place. The dispatcher prices a
/// batch's kernel chain on a topology node's CPU, on its GPU (plus the host
/// link's transfers), and on the GPU with the registered fusion chains
/// collapsed, then routes the batch to the cheapest placement. The
/// predictor IS the analytic cost model (sim/kernel.hpp, sim/fusion.hpp,
/// sim::LinkSpec) — the same formulas the runtime charges — so on the
/// serial executor the decision is exact up to per-launch submit/sync
/// overheads, which only make the GPU predictions optimistic (CPU is
/// chosen conservatively).
///
/// This reproduces the Dynasparse-style dynamic placement and the
/// embedding-dimension CPU/GPU crossover of Adiletta et al. (PAPERS.md):
/// tiny or launch-bound batches stay on the host (no PCIe latency, 2 us
/// launches), dense batches go to the device, and irregular byte-bound
/// chains pick fused vs unfused per batch.
///
/// It is the one mechanism that chooses a hybrid batch's chain. Serving
/// without a configured dispatcher uses a kHybrid one with the CPU masked
/// (the device-only decision), so every hybrid batch runs the cheaper of
/// its unfused and fused chains; kStaticGpu is the explicit unfused
/// baseline.
///
/// Decide() is a pure function of the WorkEstimate, the node and the mode —
/// no clocks, no RNG, no mutable state — so dispatch decisions are
/// seed-deterministic by construction.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/topology.hpp"

namespace dgnn::dispatch {

/// Where one batch executes.
enum class Placement {
    kCpu,       ///< host runs the kernels synchronously; nothing crosses PCIe
    kGpu,       ///< device runs the unfused kernel sequence
    kGpuFused,  ///< device runs the registered chains collapsed (fewer launches)
};

inline constexpr int kNumPlacements = 3;

/// Dispatch policy: three static baselines plus the per-batch hybrid.
enum class DispatchMode {
    kStaticCpu,
    kStaticGpu,
    kStaticGpuFused,
    kHybrid,
};

const char* ToString(DispatchMode mode);

/// Everything the dispatcher may inspect about one batch. Borrowed kernel
/// vectors (typically a captured serve::BatchProfile's); fused_kernels may
/// be null when no fused profile exists, collapsing kGpuFused into kGpu.
struct WorkEstimate {
    int64_t batch_size = 0;

    /// Host-side work (batch build, sampling, framework overhead), us.
    sim::SimTime host_us = 0.0;

    /// Bytes that must cross PCIe if the batch runs on the device. Includes
    /// state rows a device run would have to stage (worst-case all-miss).
    int64_t h2d_bytes = 0;
    int64_t d2h_bytes = 0;

    const std::vector<sim::KernelDesc>* kernels = nullptr;
    const std::vector<sim::KernelDesc>* fused_kernels = nullptr;
};

/// Decision features derived from the estimate — the "batch stats" the
/// placement is a pure function of. Surfaced through obs/ attribution.
struct BatchStats {
    int64_t batch_size = 0;
    int64_t launches = 0;
    int64_t fused_launches = 0;
    int64_t transfer_bytes = 0;

    /// Share of kernel bytes touched with irregular (gather/scatter) access
    /// — the sparsity signal.
    double irregular_byte_frac = 0.0;

    /// Widest kernel in the chain — the density/embedding-dim signal.
    int64_t max_parallel_items = 0;
};

/// The routing verdict plus the predictions it was based on, for attribution
/// and predict-vs-actual auditing.
struct PlacementDecision {
    Placement placement = Placement::kGpu;
    sim::SimTime predicted_cpu_us = 0.0;
    sim::SimTime predicted_gpu_us = 0.0;
    sim::SimTime predicted_gpu_fused_us = 0.0;
    BatchStats stats;
};

/// Stateless per-batch placement engine. It holds only its policy; the
/// hardware it prices is the topology node handed to Decide().
class HybridDispatcher {
  public:
    explicit HybridDispatcher(DispatchMode mode = DispatchMode::kHybrid)
        : mode_(mode)
    {
    }

    /// Route one batch, pricing it on @p node's CPU, GPU and host link —
    /// the serving loop passes its own runtime's node, so predict and place
    /// read the same hardware. Pure function of (estimate, node, allow_cpu,
    /// mode). allow_cpu=false masks the CPU placement — serving uses it for
    /// cache-enabled sessions whose state is device-resident (a host run
    /// would bypass the cached rows). kStaticCpu with allow_cpu=false
    /// falls back to kGpu.
    [[nodiscard]] PlacementDecision Decide(const WorkEstimate& estimate,
                                           const sim::TopologyNode& node,
                                           bool allow_cpu = true) const;

    /// The decision features alone (also computed inside Decide()).
    [[nodiscard]] static BatchStats Stats(const WorkEstimate& estimate);

  private:
    DispatchMode mode_;
};

}  // namespace dgnn::dispatch
