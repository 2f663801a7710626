#include "models/dgnn_model.hpp"

#include <algorithm>
#include <cmath>

namespace dgnn::models {

sim::Runtime
MakeRuntime(sim::ExecMode mode)
{
    sim::RuntimeConfig config;
    config.mode = mode;
    return sim::Runtime(config);
}

void
ChargeBatchOverhead(sim::Runtime& runtime)
{
    runtime.RunHostFor("framework_overhead", kFrameworkBatchOverheadUs);
}

void
ValidateRunConfig(const sim::Runtime& runtime, const RunConfig& config,
                  int64_t min_neighbors)
{
    DGNN_CHECK(config.batch_size > 0, "batch_size must be positive, got ",
               config.batch_size);
    DGNN_CHECK(config.num_neighbors >= min_neighbors,
               "RunConfig::num_neighbors must be at least ", min_neighbors, ", got ",
               config.num_neighbors);
    DGNN_CHECK(config.max_events >= 0, "max_events must be non-negative, got ",
               config.max_events);
    DGNN_CHECK(config.numeric_cap >= 0, "numeric_cap must be non-negative, got ",
               config.numeric_cap);
    DGNN_CHECK(config.mode == runtime.Mode(),
               "RunConfig mode does not match the runtime's execution mode");
    DGNN_CHECK(config.cache.capacity_bytes >= 0,
               "cache capacity must be non-negative, got ",
               config.cache.capacity_bytes);
}

RunWarmup
WarmUp(sim::Runtime& runtime, const RunConfig& run, int64_t weight_bytes,
       int64_t working_set_bytes)
{
    RunWarmup warmup;
    if (run.include_warmup) {
        warmup.one_time_us = runtime.EnsureWarm(weight_bytes).TotalUs();
        warmup.per_run_us = runtime.RunAllocWarmup(working_set_bytes).TotalUs();
    }
    return warmup;
}

int64_t
Capped(int64_t count, int64_t cap)
{
    return cap > 0 ? std::min(cap, count) : count;
}

cache::DeviceCache
MakeRunCache(const sim::Runtime& runtime, const RunConfig& run, int64_t row_bytes)
{
    if (!runtime.HasGpu() || run.cache.capacity_bytes <= 0 || row_bytes <= 0) {
        return cache::DeviceCache{};
    }
    cache::DeviceCacheConfig config = run.cache;
    config.row_bytes = row_bytes;
    return cache::DeviceCache(config);
}

sim::DeviceBuffer
AllocCacheBuffer(sim::Runtime& runtime, const cache::DeviceCache& cache,
                 int64_t table_rows, const std::string& what)
{
    if (!cache.Enabled()) {
        return sim::DeviceBuffer{};
    }
    return runtime.AllocDevice(std::min(cache.CapacityRows(), table_rows) *
                                   cache.RowBytes(),
                               what);
}

void
GatherThroughCache(sim::Runtime& runtime, cache::DeviceCache& cache,
                   const std::vector<int64_t>& keys, bool mark_dirty,
                   const std::string& what)
{
    const cache::GatherResult g = cache.Gather(keys, mark_dirty);
    runtime.GatherToDevice(g.hit_rows, g.miss_rows, cache.RowBytes(), what);
    runtime.WriteBackToHost(g.writeback_rows, cache.RowBytes(), what);
}

void
FlushCache(sim::Runtime& runtime, cache::DeviceCache& cache, const std::string& what)
{
    if (cache.Enabled()) {
        runtime.WriteBackToHost(cache.FlushDirty(), cache.RowBytes(), what);
    }
}

RunConfig
SingleBatchProbe(sim::ExecMode mode, int64_t batch_size, int64_t num_neighbors)
{
    RunConfig run;
    run.mode = mode;
    run.batch_size = batch_size;
    run.num_neighbors = num_neighbors;
    run.max_events = batch_size;
    run.numeric_cap = 1;
    run.include_warmup = false;
    return run;
}

RunResult
CollectRunStats(sim::Runtime& runtime, const std::string& model,
                const std::string& dataset, int64_t iterations,
                const RunWarmup& warmup, const Checksum& checksum,
                const cache::DeviceCache& cache)
{
    (void)runtime.Synchronize();
    RunResult r;
    r.model = model;
    r.dataset = dataset;
    r.mode = sim::ToString(runtime.Mode());
    r.total_us = runtime.ElapsedInWindow();
    r.iterations = iterations;
    r.per_iteration_us =
        iterations > 0 ? r.total_us / static_cast<double>(iterations) : r.total_us;
    r.compute_utilization_pct = runtime.ComputeUtilizationPct();
    r.compute_peak_bytes = runtime.ComputeDevice().Memory().PeakBytes();
    r.cpu_peak_bytes = runtime.Cpu().Memory().PeakBytes();
    r.h2d_bytes = runtime.BytesToDevice();
    r.d2h_bytes = runtime.BytesToHost();
    r.transfer_count = runtime.TransferCount();
    r.transfer_time_us = runtime.TransferTime();
    r.compute_busy_us = runtime.ComputeDevice().BusyTime();
    r.cache_hit_bytes = runtime.CacheHitBytes();
    r.breakdown = core::Breakdown::FromRuntime(runtime);
    r.warmup_one_time_us = warmup.one_time_us;
    r.warmup_per_run_us = warmup.per_run_us;
    r.output_checksum = checksum.Value();
    r.cache_stats = cache.Stats();
    return r;
}

sim::KernelDesc
SamplingKernel(const graph::SamplingCost& cost, int64_t targets, int64_t k,
               graph::SamplingStrategy strategy)
{
    // Per-target framework overhead expressed as equivalent memory traffic.
    // Uniform temporal sampling (TGAT) performs per-target NumPy calls,
    // index sorting and scattered gathers; most-recent lookup (TGN, DyRep)
    // is a vectorizable tail slice of the history array.
    const bool uniform = strategy == graph::SamplingStrategy::kUniform;
    const int64_t per_target_bytes = uniform ? 32768 : 128;
    // Uniform draws hit scattered history entries (cache-missing, 8x line
    // amplification); the most-recent lookup is a contiguous tail slice.
    const int64_t gather_amplification = uniform ? 8 : 1;
    const int64_t per_candidate_bytes = uniform ? 64 : 8;
    // Uniform (TGAT-style) sampling materializes padded [targets, k]
    // NumPy arrays, so its traffic scales with the requested k even when
    // node histories are shorter than k.
    const int64_t padded_slot_bytes = uniform ? targets * k * 96 : 0;
    // Probes and sort comparisons execute a handful of scalar ops each. The
    // reference samplers are single-threaded Python/NumPy: one parallel item.
    return {.name = "temporal_sampling",
            .flops = cost.bisection_probes * 16 + cost.sort_ops * 8,
            .bytes = cost.gathered_bytes * gather_amplification +
                     cost.bisection_probes * 64 + targets * per_target_bytes +
                     cost.candidates_scanned * per_candidate_bytes + padded_slot_bytes,
            .irregular = true};
}

std::vector<graph::SampledNeighborhood>
SampleOnCpu(sim::Runtime& runtime, graph::TemporalNeighborSampler& sampler,
            const std::vector<int64_t>& nodes, const std::vector<double>& times,
            int64_t k)
{
    std::vector<graph::SampledNeighborhood> result =
        sampler.SampleBatch(nodes, times, k);
    const graph::SamplingCost cost = sampler.TakeCost();
    runtime.RunHost(SamplingKernel(cost, static_cast<int64_t>(nodes.size()), k,
                                   sampler.Strategy()));
    return result;
}

void
AppendNeighborRows(const Tensor& table, std::span<const int64_t> neighbors,
                   std::vector<float>& kv, std::vector<int64_t>& slots)
{
    const int64_t d = table.Dim(1);
    if (kv.empty()) {
        kv.assign(static_cast<size_t>(d), 0.0f);
    }
    for (const int64_t nbr : neighbors) {
        if (nbr < 0) {
            slots.push_back(0);
            continue;
        }
        slots.push_back(static_cast<int64_t>(kv.size()) / d);
        kv.insert(kv.end(), table.Data() + nbr * d, table.Data() + (nbr + 1) * d);
    }
}

void
Checksum::Add(const Tensor& t)
{
    sum_ += t.Sum();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        abs_sum_ += std::fabs(static_cast<double>(t.Data()[i]));
    }
    count_ += t.NumElements();
}

void
Checksum::Add(double v)
{
    sum_ += v;
    abs_sum_ += std::fabs(v);
    ++count_;
}

double
Checksum::Value() const
{
    if (count_ == 0) {
        return 0.0;
    }
    return sum_ + 1e-3 * abs_sum_ / static_cast<double>(count_);
}

}  // namespace dgnn::models
