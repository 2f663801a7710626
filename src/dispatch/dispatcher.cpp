#include "dispatch/dispatcher.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::dispatch {
namespace {

/// One blocking copy over @p link; a batch with nothing to move issues no
/// copy (the executors skip zero-byte transfers).
sim::SimTime
CopyTime(int64_t bytes, const sim::LinkSpec& link)
{
    return bytes > 0 ? link.TransferTime(bytes) : 0.0;
}

sim::SimTime
ChainTime(const sim::DeviceSpec& spec,
          const std::vector<sim::KernelDesc>& kernels)
{
    sim::SimTime total = 0.0;
    for (const sim::KernelDesc& kernel : kernels) {
        total += sim::KernelDuration(spec, kernel);
    }
    return total;
}

}  // namespace

const char*
ToString(DispatchMode mode)
{
    switch (mode) {
        case DispatchMode::kStaticCpu:
            return "static-cpu";
        case DispatchMode::kStaticGpu:
            return "static-gpu";
        case DispatchMode::kStaticGpuFused:
            return "static-gpu-fused";
        case DispatchMode::kHybrid:
            return "hybrid";
    }
    return "?";
}

BatchStats
HybridDispatcher::Stats(const WorkEstimate& estimate)
{
    DGNN_CHECK(estimate.kernels != nullptr,
               "WorkEstimate carries no kernel chain");
    BatchStats stats;
    stats.batch_size = estimate.batch_size;
    stats.launches = static_cast<int64_t>(estimate.kernels->size());
    stats.fused_launches =
        estimate.fused_kernels != nullptr
            ? static_cast<int64_t>(estimate.fused_kernels->size())
            : stats.launches;
    stats.transfer_bytes = estimate.h2d_bytes + estimate.d2h_bytes;
    int64_t total_bytes = 0;
    int64_t irregular_bytes = 0;
    for (const sim::KernelDesc& kernel : *estimate.kernels) {
        total_bytes += kernel.bytes;
        if (kernel.irregular) {
            irregular_bytes += kernel.bytes;
        }
        stats.max_parallel_items =
            std::max(stats.max_parallel_items, kernel.parallel_items);
    }
    stats.irregular_byte_frac =
        total_bytes > 0
            ? static_cast<double>(irregular_bytes) / static_cast<double>(total_bytes)
            : 0.0;
    return stats;
}

PlacementDecision
HybridDispatcher::Decide(const WorkEstimate& estimate,
                         const sim::TopologyNode& node, bool allow_cpu) const
{
    PlacementDecision decision;
    decision.stats = Stats(estimate);

    // CPU: the host already owns the inputs and keeps the outputs — no PCIe,
    // but every kernel runs at host throughput and host launch cost.
    decision.predicted_cpu_us =
        estimate.host_us + ChainTime(node.cpu, *estimate.kernels);

    // GPU: pay both blocking transfers around the kernel chain. The serial
    // executor additionally pays per-launch submit and sync costs the model
    // omits, so these predictions are optimistic for the device — the CPU
    // placement is only chosen when it wins against a flattering GPU bound.
    const sim::SimTime transfers =
        CopyTime(estimate.h2d_bytes, node.host_link) +
        CopyTime(estimate.d2h_bytes, node.host_link);
    decision.predicted_gpu_us =
        estimate.host_us + transfers + ChainTime(node.gpu, *estimate.kernels);
    decision.predicted_gpu_fused_us =
        estimate.fused_kernels != nullptr
            ? estimate.host_us + transfers +
                  ChainTime(node.gpu, *estimate.fused_kernels)
            : decision.predicted_gpu_us;

    // No fused chain offered: kGpuFused collapses into kGpu (the static
    // fused policy falls back exactly like masked kStaticCpu does).
    const bool have_fused = estimate.fused_kernels != nullptr;

    switch (mode_) {
        case DispatchMode::kStaticCpu:
            decision.placement =
                allow_cpu ? Placement::kCpu : Placement::kGpu;
            return decision;
        case DispatchMode::kStaticGpu:
            decision.placement = Placement::kGpu;
            return decision;
        case DispatchMode::kStaticGpuFused:
            decision.placement =
                have_fused ? Placement::kGpuFused : Placement::kGpu;
            return decision;
        case DispatchMode::kHybrid:
            break;
    }

    // Argmin with a fixed tie-break order (fused, unfused, CPU) so equal
    // predictions dispatch identically on every run.
    decision.placement = have_fused ? Placement::kGpuFused : Placement::kGpu;
    sim::SimTime best = decision.predicted_gpu_fused_us;
    if (decision.predicted_gpu_us < best) {
        decision.placement = Placement::kGpu;
        best = decision.predicted_gpu_us;
    }
    if (allow_cpu && decision.predicted_cpu_us < best) {
        decision.placement = Placement::kCpu;
    }
    return decision;
}

}  // namespace dgnn::dispatch
