#pragma once

/// @file
/// Bridges the offline model layer to the online server. A ModelSession
/// wraps one DgnnModel and captures, per batch size, the model's exact
/// per-batch cost profile: it replays the model's batched inference entry
/// (models::SingleBatchProbe) against a scratch runtime and builds a
/// BatchProfile from the runtime's op records (sim::OpRecord, through a
/// RuntimeObserver) — total host-side work (sampling, batch build,
/// framework overhead), H2D/D2H transfer volumes, and the ordered
/// device-kernel descriptors. The serving executors then re-issue that
/// profile per request batch, either serially (eager-mode semantics) or
/// pipelined across streams. Profiles are memoized per batch size in a
/// ProfileTable, so dynamic batching with variable sizes stays cheap, and
/// sessions serving one model the same way can share one table.
///
/// Cache-aware serving: a session built with a positive cache capacity (and
/// a model exposing cacheable per-node state) owns a cache::DeviceCache
/// that stays WARM ACROSS BATCHES — the locality the offline benches cannot
/// express. Profiles are then captured with an unbounded probe cache so the
/// per-node state gather is separated out (state_rows / state_row_bytes,
/// told apart by the records' sim::CacheTag); at dispatch time the serving
/// loop runs the batch's actual request nodes through the live cache and
/// the executor re-issues the gather with the real hit/miss split.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/device_cache.hpp"
#include "models/dgnn_model.hpp"
#include "sim/kernel.hpp"
#include "sim/runtime.hpp"

namespace dgnn::serve {

/// Everything one inference batch costs, in issue order.
struct BatchProfile {
    int64_t batch_size = 0;
    /// Total host-side work per batch (sampling + batch build + framework
    /// overhead), us.
    sim::SimTime host_us = 0.0;
    /// Input bytes moved host->device per batch. When the session cache is
    /// enabled this EXCLUDES per-node state (tracked by state_rows below).
    int64_t h2d_bytes = 0;
    /// Result bytes moved device->host per batch (write-backs excluded —
    /// the live cache decides those per batch).
    int64_t d2h_bytes = 0;
    /// Unique per-node state rows the probe batch gathered, and their
    /// width. Zero when the capture ran uncached.
    int64_t state_rows = 0;
    int64_t state_row_bytes = 0;
    /// Device kernels, in launch order.
    std::vector<sim::KernelDesc> kernels;
};

/// The captured BatchProfiles of one (model, mode, fan-out, cache config),
/// memoized per batch size. A capture depends on nothing else, so every
/// session serving that model the same way replays the same profiles and
/// several sessions may share one table (a shard::Cluster's shards do); a
/// session built from a model owns its own.
class ProfileTable {
  public:
    /// @param model          the model to capture (borrowed; must outlive
    ///                       the table)
    /// @param mode           execution mode profiles are captured under
    /// @param num_neighbors  sampler fan-out forwarded to the probe config
    /// @param cache_config   the device cache the table's sessions serve
    ///                       through; capacity 0 (the default) serves
    ///                       uncached. Only effective in hybrid mode for
    ///                       models with cacheable state.
    ProfileTable(models::DgnnModel& model, sim::ExecMode mode,
                 int64_t num_neighbors = 20,
                 cache::DeviceCacheConfig cache_config = {});

    const models::DgnnModel& Model() const { return model_; }
    sim::ExecMode Mode() const { return mode_; }

    /// The cache each session over this table builds: the constructor's
    /// config with the model's row width, or capacity 0 where a cache
    /// cannot act honestly. Profiles separate per-node state exactly when
    /// its capacity is positive.
    const cache::DeviceCacheConfig& CacheConfig() const
    {
        return cache_config_;
    }
    bool Cached() const { return cache_config_.capacity_bytes > 0; }

    /// The (memoized) cost profile of a batch of @p batch_size requests.
    const BatchProfile& Profile(int64_t batch_size);

    /// Profile(batch_size) with the model's registered fusion chains
    /// collapsed (models::FuseRegisteredChains): fewer, fatter kernels,
    /// identical host work and transfer volumes, and no further run of the
    /// model. Memoized separately; used by the hybrid dispatcher's
    /// GPU-fused placement.
    const BatchProfile& FusedProfile(int64_t batch_size);

    /// Number of distinct batch sizes captured so far (unfused profiles).
    int64_t Captured() const
    {
        return static_cast<int64_t>(profiles_.size());
    }

  private:
    BatchProfile Capture(int64_t batch_size);

    models::DgnnModel& model_;
    sim::ExecMode mode_;
    int64_t num_neighbors_;
    cache::DeviceCacheConfig cache_config_;
    std::map<int64_t, BatchProfile> profiles_;
    std::map<int64_t, BatchProfile> fused_profiles_;
};

/// One served model: a profile table plus the session's own device cache.
class ModelSession {
  public:
    /// A session owning its profile table; the arguments are
    /// ProfileTable's. The cache is shared by every batch this session
    /// serves.
    ModelSession(models::DgnnModel& model, sim::ExecMode mode,
                 int64_t num_neighbors = 20,
                 cache::DeviceCacheConfig cache_config = {});

    /// A session over @p profiles (borrowed; must outlive the session):
    /// its captures are the table's, its cache its own, built from the
    /// table's CacheConfig().
    explicit ModelSession(ProfileTable& profiles);

    std::string ModelName() const { return profiles_.Model().Name(); }
    sim::ExecMode Mode() const { return profiles_.Mode(); }

    /// Whether batches are served through the session's device cache.
    bool CacheEnabled() const { return cache_.Enabled(); }

    /// The session-lifetime cache (warm across batches AND across Serve
    /// runs; Serve reports per-run deltas of its stats).
    cache::DeviceCache& Cache() { return cache_; }
    const cache::DeviceCache& Cache() const { return cache_; }

    /// Whether cached rows are mutated per batch (write-back tracking).
    bool CacheRowsMutable() const
    {
        return profiles_.Model().CacheRowsMutable();
    }

    /// See ProfileTable::Profile / FusedProfile.
    const BatchProfile& Profile(int64_t batch_size)
    {
        return profiles_.Profile(batch_size);
    }
    const BatchProfile& FusedProfile(int64_t batch_size)
    {
        return profiles_.FusedProfile(batch_size);
    }

    /// Distinct batch sizes the session's table has captured (shared
    /// tables count every sharing session's captures).
    int64_t CapturedProfiles() const { return profiles_.Captured(); }

  private:
    std::unique_ptr<ProfileTable> owned_;
    ProfileTable& profiles_;
    cache::DeviceCache cache_;
};

}  // namespace dgnn::serve
