#include "dispatch/dispatcher.hpp"

#include <algorithm>
#include <span>

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
ChainTime(const sim::DeviceSpec& spec, std::span<const sim::KernelDesc> kernels)
{
    sim::SimTime total = 0.0;
    for (const sim::KernelDesc& kernel : kernels) {
        total += sim::KernelDuration(spec, kernel);
    }
    return total;
}

/// The stage critical path the executors replay on @p node's GPU: each
/// stage's input copy starts once its host stage is done and the link is
/// free, its kernels once that copy and the previous stage's device work
/// are done, and a stage's host work once the host has issued the previous
/// stage's copy and kernels; the result copy follows the last kernel. When
/// a stage's kernels wait on its own copy, its copies are added as one sum,
/// so a one-stage batch prices exactly as host + transfers + chain.
sim::SimTime
StagedDeviceTime(const WorkEstimate& estimate, const sim::TopologyNode& node,
                 const std::vector<sim::KernelDesc>& kernels, bool fused)
{
    sim::SimTime host_free = 0.0;
    sim::SimTime link_end = 0.0;
    sim::SimTime device_end = 0.0;
    size_t next = 0;
    for (size_t s = 0; s < estimate.stages.size(); ++s) {
        const StageEstimate& stage = estimate.stages[s];
        const auto launches =
            static_cast<size_t>(fused ? stage.fused_launches : stage.launches);
        const sim::SimTime chain = ChainTime(
            node.gpu,
            std::span<const sim::KernelDesc>(kernels).subspan(next, launches));
        next += launches;
        const sim::SimTime host_end = host_free + stage.host_us;
        const sim::SimTime h2d = CopyTime(stage.h2d_bytes, node.host_link);
        const sim::SimTime d2h = s + 1 == estimate.stages.size()
                                     ? CopyTime(estimate.d2h_bytes, node.host_link)
                                     : 0.0;
        const sim::SimTime copy_start = std::max(host_end, link_end);
        link_end = copy_start + h2d;
        device_end = link_end >= device_end ? copy_start + (h2d + d2h) + chain
                                            : device_end + chain + d2h;
        host_free = host_end + stage.copy_issue_us +
                    static_cast<double>(launches) * estimate.launch_issue_us;
    }
    return device_end;
}

}  // namespace

sim::SimTime
WorkEstimate::HostUs() const
{
    sim::SimTime total = 0.0;
    for (const StageEstimate& stage : stages) {
        total += stage.host_us;
    }
    return total;
}

int64_t
WorkEstimate::H2dBytes() const
{
    int64_t total = 0;
    for (const StageEstimate& stage : stages) {
        total += stage.h2d_bytes;
    }
    return total;
}

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
    stats.transfer_bytes = estimate.H2dBytes() + estimate.d2h_bytes;
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
        estimate.HostUs() + ChainTime(node.cpu, *estimate.kernels);

    // GPU: the stages' transfers and kernels, each behind its host stage.
    // The executors additionally pay per-launch submit and sync costs the
    // model omits, so these predictions are optimistic for the device — the
    // CPU placement is only chosen when it wins against a flattering GPU
    // bound.
    decision.predicted_gpu_us =
        StagedDeviceTime(estimate, node, *estimate.kernels, false);
    decision.predicted_gpu_fused_us =
        estimate.fused_kernels != nullptr
            ? StagedDeviceTime(estimate, node, *estimate.fused_kernels, true)
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
