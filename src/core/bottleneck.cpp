#include "core/bottleneck.hpp"

#include <iomanip>
#include <sstream>

#include "core/trace_analysis.hpp"
#include "support/check.hpp"

namespace dgnn::core {

const char*
ToString(Severity severity)
{
    switch (severity) {
      case Severity::kNone:
        return "none";
      case Severity::kModerate:
        return "moderate";
      case Severity::kSevere:
        return "SEVERE";
    }
    return "?";
}

TemporalDependencyReport
AnalyzeTemporalDependency(const sim::Runtime& runtime)
{
    TemporalDependencyReport r;
    const sim::Device& dev = runtime.ComputeDevice();
    const sim::SimTime elapsed = runtime.ElapsedInWindow();

    r.compute_utilization_pct = dev.UtilizationPct(elapsed);
    r.weighted_utilization_pct = dev.WeightedUtilizationPct(elapsed);
    r.kernel_count = dev.KernelCount();
    if (r.kernel_count > 0) {
        r.mean_kernel_occupancy =
            dev.BusyTime() > 0.0 ? dev.WeightedBusyTime() / dev.BusyTime() : 0.0;
        r.mean_kernel_us = dev.BusyTime() / static_cast<double>(r.kernel_count);
        const sim::SimTime launch_total =
            dev.Spec().launch_overhead_us * static_cast<double>(r.kernel_count);
        r.launch_overhead_share_pct =
            100.0 * launch_total / (dev.BusyTime() + launch_total);
    }
    if (r.compute_utilization_pct < 2.0) {
        r.severity = Severity::kSevere;
    } else if (r.compute_utilization_pct < 20.0) {
        r.severity = Severity::kModerate;
    }
    return r;
}

WorkloadImbalanceReport
AnalyzeWorkloadImbalance(const sim::Runtime& runtime)
{
    WorkloadImbalanceReport r;
    const sim::SimTime elapsed = runtime.ElapsedInWindow();
    r.cpu_busy_us = runtime.Cpu().BusyTime();
    r.gpu_busy_us = runtime.HasGpu() ? runtime.Gpu().BusyTime() : 0.0;
    if (elapsed > 0.0) {
        r.cpu_share_pct = 100.0 * r.cpu_busy_us / elapsed;
        r.gpu_busy_share_pct = 100.0 * r.gpu_busy_us / elapsed;
    }
    r.imbalance_ratio = r.gpu_busy_us > 0.0 ? r.cpu_busy_us / r.gpu_busy_us : 0.0;
    if (runtime.HasGpu()) {
        if (r.imbalance_ratio > 4.0) {
            r.severity = Severity::kSevere;
        } else if (r.imbalance_ratio > 1.5) {
            r.severity = Severity::kModerate;
        }
    }
    return r;
}

DataMovementReport
AnalyzeDataMovement(const sim::Runtime& runtime)
{
    DataMovementReport r;
    const sim::SimTime elapsed = runtime.ElapsedInWindow();
    r.h2d_bytes = runtime.BytesToDevice();
    r.d2h_bytes = runtime.BytesToHost();
    r.transfer_count = runtime.TransferCount();
    r.transfer_time_us = runtime.TransferTime();
    r.transfer_share_pct =
        elapsed > 0.0 ? 100.0 * r.transfer_time_us / elapsed : 0.0;
    if (r.transfer_share_pct > 40.0) {
        r.severity = Severity::kSevere;
    } else if (r.transfer_share_pct > 15.0) {
        r.severity = Severity::kModerate;
    }
    return r;
}

WarmupBottleneckReport
AnalyzeWarmup(const sim::Runtime& runtime, sim::SimTime per_run_alloc_us,
              sim::SimTime steady_state_iteration_us)
{
    WarmupBottleneckReport r;
    if (runtime.IsWarm()) {
        // EnsureWarm caches its report; re-run the pure computation.
        r.one_time = sim::ComputeOneTimeWarmup(runtime.ComputeDevice().Spec(),
                                               runtime.Pcie(), 0);
    }
    r.per_run_alloc_us = per_run_alloc_us;
    r.steady_state_iteration_us = steady_state_iteration_us;
    if (steady_state_iteration_us > 0.0) {
        r.one_time_vs_iteration = r.one_time.TotalUs() / steady_state_iteration_us;
    }
    if (r.one_time_vs_iteration > 30.0) {
        r.severity = Severity::kSevere;
    } else if (r.one_time_vs_iteration > 5.0) {
        r.severity = Severity::kModerate;
    }
    return r;
}

BottleneckReport
AnalyzeAll(const sim::Runtime& runtime, const std::string& model,
           const std::string& config, sim::SimTime per_run_alloc_us,
           sim::SimTime steady_state_iteration_us)
{
    BottleneckReport report;
    report.model = model;
    report.config = config;
    report.elapsed_us = runtime.ElapsedInWindow();
    report.temporal_dependency = AnalyzeTemporalDependency(runtime);
    report.workload_imbalance = AnalyzeWorkloadImbalance(runtime);
    report.data_movement = AnalyzeDataMovement(runtime);
    report.warmup =
        AnalyzeWarmup(runtime, per_run_alloc_us, steady_state_iteration_us);
    return report;
}

std::string
BottleneckReport::ToText() const
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(2);
    oss << "=== Bottleneck report: " << model << " (" << config << ") ===\n";
    oss << "elapsed: " << sim::FormatDuration(elapsed_us) << "\n";

    const TemporalDependencyReport& td = temporal_dependency;
    oss << "[1] temporal data dependency  [" << ToString(td.severity) << "]\n"
        << "    compute utilization: " << td.compute_utilization_pct
        << " % (SM-weighted: " << td.weighted_utilization_pct << " %)\n"
        << "    mean kernel occupancy: " << 100.0 * td.mean_kernel_occupancy << " %\n"
        << "    kernels: " << td.kernel_count
        << ", mean duration: " << sim::FormatDuration(td.mean_kernel_us) << "\n"
        << "    launch-overhead share of kernel time: "
        << td.launch_overhead_share_pct << " %\n";

    const WorkloadImbalanceReport& wi = workload_imbalance;
    oss << "[2] workload imbalance        [" << ToString(wi.severity) << "]\n"
        << "    CPU busy: " << sim::FormatDuration(wi.cpu_busy_us) << " ("
        << wi.cpu_share_pct << " % of elapsed)\n"
        << "    GPU busy: " << sim::FormatDuration(wi.gpu_busy_us) << " ("
        << wi.gpu_busy_share_pct << " % of elapsed)\n"
        << "    CPU/GPU busy ratio: " << wi.imbalance_ratio << "\n";

    const DataMovementReport& dm = data_movement;
    oss << "[3] data movement             [" << ToString(dm.severity) << "]\n"
        << "    H2D: " << static_cast<double>(dm.h2d_bytes) / 1024.0 / 1024.0
        << " MB, D2H: "
        << static_cast<double>(dm.d2h_bytes) / 1024.0 / 1024.0
        << " MB in " << dm.transfer_count
        << " transfers\n"
        << "    PCIe time: " << sim::FormatDuration(dm.transfer_time_us) << " ("
        << dm.transfer_share_pct << " % of elapsed)\n";

    const WarmupBottleneckReport& wu = warmup;
    oss << "[4] GPU warm-up               [" << ToString(wu.severity) << "]\n"
        << "    one-time: " << sim::FormatDuration(wu.one_time.TotalUs())
        << " (context " << sim::FormatDuration(wu.one_time.context_init_us)
        << ", model init " << sim::FormatDuration(wu.one_time.model_init_us)
        << ", weights " << sim::FormatDuration(wu.one_time.weight_transfer_us)
        << ")\n"
        << "    per-run alloc: " << sim::FormatDuration(wu.per_run_alloc_us) << "\n"
        << "    one-time / steady-state iteration: " << wu.one_time_vs_iteration
        << "x\n";
    return oss.str();
}

}  // namespace dgnn::core
