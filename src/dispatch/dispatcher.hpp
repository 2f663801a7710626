#pragma once

/// @file
/// Per-batch hybrid dispatch: predict-then-place. The dispatcher prices a
/// batch's kernel chain on a topology node's CPU, on its GPU (plus the host
/// link's transfers), and on the GPU with the registered fusion chains
/// collapsed, then routes the batch to the cheapest placement. The
/// predictor IS the analytic cost model (sim/kernel.hpp, sim/fusion.hpp,
/// sim::LinkSpec) — the same formulas the runtime charges — priced over the
/// batch's stages the way the executors replay them (a stage's input copy
/// starts once its host stage is done, its kernels once that copy and the
/// previous stage's device work are done, and a stage's host work once the
/// host has issued the previous stage's copy and kernels), so the decision
/// is exact up to the kernel and async-copy submit gaps and the last
/// stage's issue and sync overheads, which only make the GPU predictions
/// optimistic (CPU is chosen conservatively).
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

/// One stage of a batch, in issue order (a serve::BatchStage): the host
/// work of a run of host ops, then the device work issued before the next
/// one.
struct StageEstimate {
    /// Host-side work (batch build, sampling, framework overhead), us.
    sim::SimTime host_us = 0.0;
    /// Bytes the stage's input copy moves if the batch runs on the device,
    /// including the state rows it would stage (worst-case all-miss).
    int64_t h2d_bytes = 0;
    /// Kernels the stage launches from WorkEstimate::kernels and from
    /// WorkEstimate::fused_kernels: the next entries after the earlier
    /// stages' launches.
    int64_t launches = 0;
    int64_t fused_launches = 0;
    /// Host time the executor spends issuing the stage's input copy before
    /// it goes on (submit and fence costs, or a blocking copy's wait), us.
    sim::SimTime copy_issue_us = 0.0;
};

/// Everything the dispatcher may inspect about one batch. Borrowed kernel
/// vectors (typically a captured serve::BatchProfile's); fused_kernels may
/// be null when no fused profile exists, collapsing kGpuFused into kGpu.
struct WorkEstimate {
    int64_t batch_size = 0;

    /// The batch's stages, in issue order.
    std::vector<StageEstimate> stages;

    /// Result bytes returned after the last kernel.
    int64_t d2h_bytes = 0;

    const std::vector<sim::KernelDesc>* kernels = nullptr;
    const std::vector<sim::KernelDesc>* fused_kernels = nullptr;

    /// Host time the executor spends submitting one kernel, us. With each
    /// stage's copy_issue_us it delays the next stage's host work.
    sim::SimTime launch_issue_us = 0.0;

    /// The stages' host work and input bytes, summed.
    [[nodiscard]] sim::SimTime HostUs() const;
    [[nodiscard]] int64_t H2dBytes() const;
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
