#pragma once

/// @file
/// Common interface for the eight profiled DGNN models. Each model computes
/// *real* numerics on the host through the nn substrate and issues the
/// matching cost descriptors (kernels, copies, syncs) to the simulated
/// runtime; DESIGN.md section 2 says which steps share one call.
///
/// Numeric fidelity: models accept a `numeric_cap` — when positive, only the
/// first `numeric_cap` items of a batch are numerically evaluated (the
/// output checksum covers those alone) while cost accounting always covers
/// the full batch: every RunResult field but output_checksum is the same at
/// any cap, for all eight models in both modes
/// (AllModelsTest.NumericCapKeepsCostAccountingIdentical). Tests and
/// examples run with numeric_cap = 0 (full math, except ASTGNN's fixed
/// sample: astgnn.hpp); large benchmark sweeps set a cap to keep wall-clock
/// reasonable. This is an explicit performance knob, not a simulation
/// shortcut — the full code path is identical.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/device_cache.hpp"
#include "core/breakdown.hpp"
#include "graph/temporal_sampler.hpp"
#include "nn/attention.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/rnn_cell.hpp"
#include "nn/time_encoding.hpp"
#include "sim/runtime.hpp"

namespace dgnn::models {

/// Per-run execution configuration shared by every model.
struct RunConfig {
    sim::ExecMode mode = sim::ExecMode::kHybrid;
    /// Events per mini-batch (CTDG) or snapshots/graphs per batch (DTDG).
    int64_t batch_size = 256;
    /// Temporal neighbors sampled per node (TGAT / TGN).
    int64_t num_neighbors = 20;
    /// Cap on processed events/steps; 0 = whole dataset.
    int64_t max_events = 0;
    /// Numeric fidelity cap per batch; 0 = full numerics (see file header).
    int64_t numeric_cap = 0;
    /// Run the one-time warm-up before the measured window.
    bool include_warmup = true;
    /// Device-resident cache for per-node feature/memory rows, hybrid mode
    /// only (CPU-only runs bypass it untouched). capacity_bytes == 0
    /// disables the cache: every gather pays the full PCIe transfer, which
    /// is the pre-cache baseline bit-for-bit. The model overrides
    /// cache.row_bytes with its own state row width.
    cache::DeviceCacheConfig cache;
};

/// Everything a measured inference run produces.
struct RunResult {
    std::string model;
    std::string dataset;
    std::string mode;

    sim::SimTime total_us = 0.0;          ///< measured window length
    sim::SimTime per_iteration_us = 0.0;  ///< total / iterations
    int64_t iterations = 0;

    double compute_utilization_pct = 0.0;
    int64_t compute_peak_bytes = 0;  ///< peak memory on the compute device
    int64_t cpu_peak_bytes = 0;
    int64_t h2d_bytes = 0;
    int64_t d2h_bytes = 0;
    int64_t transfer_count = 0;
    sim::SimTime transfer_time_us = 0.0;

    core::Breakdown breakdown;

    sim::SimTime warmup_one_time_us = 0.0;
    sim::SimTime warmup_per_run_us = 0.0;
    /// Compute-device busy time within the window ("computation" of Table 2).
    sim::SimTime compute_busy_us = 0.0;

    /// Order-independent fingerprint of the numeric outputs, for regression
    /// tests (identical config + seed => identical checksum). The device
    /// cache never changes this value — it reshapes cost, not math.
    double output_checksum = 0.0;

    /// Device-cache counters for the run (all zero when the cache was
    /// disabled or the run was CPU-only).
    cache::CacheStats cache_stats;
    /// H2D bytes served on-device by cache hits (runtime accounting; equals
    /// cache_stats.hit_bytes for a single-cache run).
    int64_t cache_hit_bytes = 0;
};

/// Abstract profiled model.
class DgnnModel {
  public:
    virtual ~DgnnModel() = default;

    /// Model name as in the paper ("TGAT", "EvolveGCN-O", ...).
    virtual std::string Name() const = 0;

    /// Runs inference over the model's dataset under @p config.
    virtual RunResult RunInference(sim::Runtime& runtime, const RunConfig& config) = 0;

    /// Width in bytes of one per-node row the model moves to the device:
    /// memory rows for TGN, embedding rows for JODIE, feature rows for
    /// TGAT; 0 = the model has no per-node rows. The shard exchange ships
    /// remote-owned rows of this width; the device cache holds them only
    /// when they are mutable.
    virtual int64_t CacheRowBytes() const { return 0; }

    /// Whether the rows are state the device mutates every batch (TGN
    /// memory, JODIE embeddings: the device cache holds them, dirty until
    /// written back, and the shard exchange returns their deltas) or
    /// read-only (TGAT features: the table stays resident, no cache, and
    /// the exchange moves them one way).
    virtual bool CacheRowsMutable() const { return false; }
};

/// Builds a runtime for the requested execution mode with paper presets.
sim::Runtime MakeRuntime(sim::ExecMode mode);

/// Host-side eager-framework overhead per mini-batch (Python interpreter,
/// dict/batch bookkeeping, autograd bypass checks). Paid on both the
/// CPU-only and hybrid paths — it runs on the host either way.
constexpr sim::SimTime kFrameworkBatchOverheadUs = 250.0;

/// Charges the per-batch framework overhead to the current category.
void ChargeBatchOverhead(sim::Runtime& runtime);

/// Validates a run configuration (positive batch size, at least
/// @p min_neighbors sampled neighbors, sane cap values, mode matching the
/// runtime). Every model calls this first, before anything is charged;
/// models that sample temporal neighbors pass min_neighbors = 1.
void ValidateRunConfig(const sim::Runtime& runtime, const RunConfig& config,
                       int64_t min_neighbors = 0);

/// Warm-up charged before a run's measured window.
struct RunWarmup {
    sim::SimTime one_time_us = 0.0;
    sim::SimTime per_run_us = 0.0;
};

/// Runs the warm-up when RunConfig::include_warmup is set: the one-time
/// ramp-up with the @p weight_bytes upload, then the per-run allocator
/// warm-up of @p working_set_bytes. Returns zeros when it is off.
RunWarmup WarmUp(sim::Runtime& runtime, const RunConfig& run, int64_t weight_bytes,
                 int64_t working_set_bytes);

/// @p count, limited to @p cap when the cap is positive: the one clamp
/// behind RunConfig::max_events (the items a run processes) and
/// RunConfig::numeric_cap (the items of a batch evaluated numerically).
int64_t Capped(int64_t count, int64_t cap);

/// Builds the run's device cache: enabled only when the runtime is hybrid
/// and the config carries a positive capacity; the model's @p row_bytes
/// overrides whatever row width the config holds. Returns a disabled cache
/// otherwise (all-miss, retains nothing), which models treat as "use the
/// uncached transfer path".
cache::DeviceCache MakeRunCache(const sim::Runtime& runtime, const RunConfig& run,
                                int64_t row_bytes);

/// The cache's device footprint (staging + index), capped at the
/// @p table_rows the model could ever cache: cached capacity is not free
/// device memory. An empty buffer when the cache is disabled.
sim::DeviceBuffer AllocCacheBuffer(sim::Runtime& runtime, const cache::DeviceCache& cache,
                                   int64_t table_rows, const std::string& what);

/// Moves the state rows of @p keys to the device through @p cache: hits
/// gather on-device, misses cross PCIe, and dirty rows the admission
/// evicted are written back. Every gathered row is dirty until flushed.
void GatherThroughCache(sim::Runtime& runtime, cache::DeviceCache& cache,
                        const std::vector<int64_t>& keys, const std::string& what);

/// End-of-run flush: the host-side store sees every device-resident update
/// once (one bulk write-back, not one per batch). No-op when disabled.
void FlushCache(sim::Runtime& runtime, cache::DeviceCache& cache,
                const std::string& what);

/// Single-batch probe configuration: runs exactly one mini-batch of
/// @p batch_size items (max_events == batch_size) with warm-up disabled and
/// numerics capped to one item. This is the batched entry point the online
/// serving layer (serve::ModelSession) replays against a scratch runtime to
/// capture a model's per-batch cost profile — cost accounting always covers
/// the full batch (see the numeric_cap contract in the file header).
RunConfig SingleBatchProbe(sim::ExecMode mode, int64_t batch_size,
                           int64_t num_neighbors = 20);

/// Deterministic fingerprint helper: accumulates sum + abs-sum of a tensor.
class Checksum {
  public:
    void Add(const Tensor& t);
    void Add(double v);
    double Value() const;

  private:
    double sum_ = 0.0;
    double abs_sum_ = 0.0;
    int64_t count_ = 0;
};

/// Synchronizes, then assembles the RunResult from the runtime's
/// measurement window, the run's @p warmup, @p checksum and the counters of
/// its device @p cache (all zero for a model without one).
RunResult CollectRunStats(sim::Runtime& runtime, const std::string& model,
                          const std::string& dataset, int64_t iterations,
                          const RunWarmup& warmup, const Checksum& checksum,
                          const cache::DeviceCache& cache = cache::DeviceCache{});

/// Name of the host kernel SamplingKernel describes: the one op through
/// which SampleOnCpu charges a batch's neighbour sampling, and by which
/// serve::ProfileTable tells that work apart from the rest of the batch's
/// host work.
inline constexpr std::string_view kSamplingKernelName = "temporal_sampling";

/// Name of the host->device copy that ships a batch's sampled temporal
/// neighbourhoods (their node indices, and TGAT's time deltas): the bytes
/// that exist as soon as the batch is sampled, by which
/// serve::ProfileTable tells them apart from the rest of a stage's inputs.
inline constexpr std::string_view kNeighborhoodCopyName = "neighborhood_h2d";

/// Converts an accumulated sampling cost into a host kernel descriptor.
/// Calibration: each bisection probe and each gathered neighbor entry is a
/// cache-missing random access; framework per-target call overhead appears
/// as equivalent memory traffic (see DESIGN.md section 5).
/// Uniform sampling (TGAT) pays the index sort and a much larger per-call
/// overhead than the vectorizable most-recent lookup (TGN/DyRep).
sim::KernelDesc SamplingKernel(const graph::SamplingCost& cost, int64_t targets,
                               int64_t k, graph::SamplingStrategy strategy);

/// CPU-side temporal sampling: performs the real sampling and charges the
/// host with SamplingKernel of the cost it accumulated.
std::vector<graph::SampledNeighborhood>
SampleOnCpu(sim::Runtime& runtime, graph::TemporalNeighborSampler& sampler,
            const std::vector<int64_t>& nodes, const std::vector<double>& times,
            int64_t k);

/// Appends one attention query's slots over sampled @p neighbors to
/// @p slots, and the rows they name to @p kv, a flat [*, d] block read
/// from @p table: each filled slot adds its neighbor's row, and every
/// empty slot names row 0, the zero row the first call adds.
void AppendNeighborRows(const Tensor& table, std::span<const int64_t> neighbors,
                        std::vector<float>& kv, std::vector<int64_t>& slots);

}  // namespace dgnn::models
