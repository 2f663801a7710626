#pragma once

/// @file
/// Bridges the offline model layer to the online server. A ModelSession
/// wraps one DgnnModel and captures, per batch size, the model's exact
/// per-batch cost profile: it replays the model's batched inference entry
/// (models::SingleBatchProbe) against a scratch runtime and builds a
/// BatchProfile from the runtime's op records (sim::OpRecord, through a
/// RuntimeObserver) — the probe's ordered stages, each the host-side work
/// of a run of host ops (sampling, batch build, framework overhead) with
/// its sampling share, then the H2D/D2H volumes and device kernels issued
/// before the next host op. The serving executors then re-issue that
/// profile per request batch, stage by stage, either serially (eager-mode
/// semantics) or pipelined across streams. Profiles are memoized per batch
/// size in a ProfileTable, so dynamic batching with variable sizes stays
/// cheap, and sessions serving one model the same way can share one table.
///
/// Cache-aware serving: a session built with a positive cache capacity (and
/// a model with mutable per-node state) owns a cache::DeviceCache
/// that stays WARM ACROSS BATCHES — the locality the offline benches cannot
/// express. Profiles are then captured with an unbounded probe cache so the
/// per-node state gather is separated out (state_rows / state_row_bytes,
/// told apart by the records' sim::CacheTag); at dispatch time the serving
/// loop runs the batch's actual request nodes through the live cache and
/// the executor re-issues the gather with the real hit/miss split.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/device_cache.hpp"
#include "models/dgnn_model.hpp"
#include "sim/kernel.hpp"
#include "sim/runtime.hpp"

namespace dgnn::serve {

/// One stage of a batch, in issue order: the host time of a run of
/// consecutive host ops, then the device work the probe issued before its
/// next host op. The executors replay a batch stage by stage, so a stage's
/// device work runs while the host does the next stage.
struct BatchStage {
    /// Host time of the stage's host ops (sampling, batch build, framework
    /// overhead), us.
    sim::SimTime host_us = 0.0;
    /// The part of host_us that is neighbour sampling (the host ops named
    /// models::kSamplingKernelName), us.
    sim::SimTime prep_us = 0.0;
    /// Input bytes the stage moved host->device, per-node state excluded.
    int64_t h2d_bytes = 0;
    /// The part of h2d_bytes that is the batch's sampled neighbourhoods
    /// (the copies named models::kNeighborhoodCopyName): bytes that exist
    /// once the batch is sampled, which the executors ship in the batch's
    /// first input copy.
    int64_t neighborhood_bytes = 0;
    /// Result bytes the stage moved device->host (the executors return a
    /// batch's results in one copy after its last kernel).
    int64_t d2h_bytes = 0;
    /// Unique per-node state rows the probe gathered in this stage; a live
    /// batch's cache misses and hit gather belong to the stage that holds
    /// them.
    int64_t state_rows = 0;
    /// Kernels the stage launches: the next `launches` entries of
    /// BatchProfile::kernels after the earlier stages' launches.
    int64_t launches = 0;
};

/// Everything one inference batch costs, in issue order. The stages are
/// the record; every total below is the sum over them, and `kernels` is
/// the stages' launches concatenated.
struct BatchProfile {
    int64_t batch_size = 0;
    std::vector<BatchStage> stages;
    /// Total host-side work per batch (sampling + batch build + framework
    /// overhead), us.
    sim::SimTime host_us = 0.0;
    /// The part of host_us that is neighbour sampling: the per-request
    /// work the serving loop can do ahead of dispatch. 0 for models that
    /// sample nothing on the host; never above host_us.
    sim::SimTime prep_us = 0.0;
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

    /// The stage that gathered the per-node state rows (the first with any),
    /// or 0 when none did.
    size_t StateStage() const;
    /// The first stage that moves input bytes, or 0 when none does: the
    /// stage whose copy carries the batch's sampled neighbourhoods.
    size_t FirstCopyStage() const;
    /// The kernels stage @p stage launches.
    std::span<const sim::KernelDesc> StageKernels(size_t stage) const;
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
    ///                       models with mutable per-node state.
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
    /// each fused kernel in the stage of its chain's last member,
    /// identical host work and transfer volumes, and no further run of the
    /// model. Memoized separately; the chain a hybrid batch runs when it
    /// is placed on kGpuFused.
    const BatchProfile& FusedProfile(int64_t batch_size);

    /// The host sampling work of @p group_size requests, which the serving
    /// loop does ahead of dispatch: Profile(group_size).prep_us when
    /// @p group_size is a power of two, else linear between the two powers
    /// of two around it. Only powers of two are captured, and a capture
    /// made here does not count as a captured batch size: a fresh table
    /// (every shard::ServeSharded call builds one) would otherwise pay a
    /// full model probe for each group size it meets. Sampling cost is
    /// close to linear in the group size, and the price rises with it.
    sim::SimTime PrepUs(int64_t group_size);

    /// Number of distinct batch sizes captured so far (unfused profiles).
    int64_t Captured() const
    {
        return static_cast<int64_t>(profiles_.size());
    }

  private:
    BatchProfile Capture(int64_t batch_size);
    /// Profile(size).prep_us, capturing into prepped_ if need be.
    sim::SimTime CapturedPrepUs(int64_t size);

    models::DgnnModel& model_;
    sim::ExecMode mode_;
    int64_t num_neighbors_;
    cache::DeviceCacheConfig cache_config_;
    std::map<int64_t, BatchProfile> profiles_;
    std::map<int64_t, BatchProfile> fused_profiles_;
    /// Captures PrepUs made that Profile has not asked for yet; Profile
    /// moves one into profiles_ instead of capturing it again.
    std::map<int64_t, BatchProfile> prepped_;
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

    /// See ProfileTable::Profile / FusedProfile / PrepUs.
    const BatchProfile& Profile(int64_t batch_size)
    {
        return profiles_.Profile(batch_size);
    }
    const BatchProfile& FusedProfile(int64_t batch_size)
    {
        return profiles_.FusedProfile(batch_size);
    }
    sim::SimTime PrepUs(int64_t group_size)
    {
        return profiles_.PrepUs(group_size);
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
